(** Exact convex polytopes in [R^3]: hulls of small point sets and
    intersections of hulls, by supporting-plane enumeration and successive
    halfspace clipping.

    This is the D = 3 counterpart of {!Polygon}: an explicit boundary
    representation (face rings aligned with outward halfspaces) on which
    diameter, membership and centroid queries are closed-form scans instead
    of linear programs. It backs the [Safe_area] D = 3 kernel; the
    LP-backed {!Hullset} is the fallback for degenerate D = 3 inputs, the
    oracle for differential tests and the kernel for D ≥ 4.

    All operations are deterministic pure functions of the input coordinate
    bits. Degenerate inputs — affinely dependent point sets, intersections
    thinner than the tolerance band (relative [1e-9] of the clip-box
    diagonal) — are reported as [`Degenerate] rather than approximated, and
    the caller is expected to fall back to the LP kernel, which keeps
    robustness a performance question rather than a correctness one. *)

type poly
(** A bounded convex polytope with non-empty interior (≥ 4 faces). *)

type halfspace = { n : Vec.t; o : float }
(** The region [n·x ≤ o], with [n] a unit vector. *)

val of_points :
  Vec.t list -> [ `Poly of poly | `Degenerate ]
(** Convex hull of a point set. [`Degenerate] when the set has fewer than
    four points, is affinely dependent, or is numerically flat. *)

val inter_trimmed :
  t:int -> Vec.t array -> [ `Poly of poly | `Empty | `Degenerate ]
(** [inter_trimmed ~t pts] is [⋂ convex(S)] over the [C(m, t)] subsets [S]
    of [m − t] points of [pts] ([m = Array.length pts]): the safe area
    [safe_t] of Definition 5.1. The subsets are taken in the lexicographic
    index order of [Restrict.subsets_arr], and the result depends on the
    order of [pts]; [Safe_area] passes the canonically sorted multiset.
    Each index triple's plane (unit normal and offset) is computed once
    for all subsets; the result is bit-identical to clipping with every subset's
    own supporting planes, subset by subset.

    [`Empty] when the clipped region vanished ({e advisory}: a
    lower-dimensional but non-empty true intersection can also report
    [`Empty] — callers that must distinguish re-decide emptiness with the
    LP kernel). [`Degenerate] when some subset is affinely dependent or
    the intersection is thinner than the tolerance band. The family size
    is not bounded here; callers bound it.

    @raise Invalid_argument if [t < 0] or [t > m]. *)

val vertices : poly -> Vec.t list
(** Deduped vertex set, lexicographically sorted (computed lazily once). *)

val halfspaces : poly -> halfspace list
(** The outward supporting halfspace of each face. *)

val nfaces : poly -> int

val contains : ?eps:float -> poly -> Vec.t -> bool
(** Membership: every face halfspace satisfied within [eps]
    (default [1e-9], absolute). *)

val diameter_pair : poly -> Vec.t * Vec.t
(** The exact diameter-realizing vertex pair, tie-broken deterministically
    as in {!Vec.diameter_pair}. *)

val diameter : poly -> float

val centroid : poly -> Vec.t
(** Arithmetic mean of the deduped vertex set. *)
