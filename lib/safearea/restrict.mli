(** Enumeration of the subset family [restrict_t(M)] of Definition 5.1:
    all subsets of [M] of size [|M| − t]. *)

val count : m:int -> t:int -> int
(** [count ~m ~t = C(m, t)], the size of the family. Saturates at
    [max_int] rather than overflowing. *)

val check : m:int -> t:int -> unit
(** [check ~m ~t] raises exactly when {!subsets} would on a list of
    length [m]; kernels that walk the family without materialising it
    validate with it first.

    @raise Invalid_argument under the same conditions as {!subsets}. *)

val subsets_arr : t:int -> 'a array -> 'a array array
(** [subsets_arr ~t a] is every subarray of [a] obtained by removing
    exactly [t] elements, each preserving the original order; the family is
    produced in increasing lexicographic order of the kept index sets. This
    is the allocation-lean kernel behind {!subsets} and the safe-area
    computation; the returned rows are fresh.

    @raise Invalid_argument under the same conditions as {!subsets}. *)

val subsets : t:int -> 'a list -> 'a list list
(** [subsets ~t l] is every sublist of [l] obtained by removing exactly
    [t] elements, each preserving the original order; the family itself is
    produced in a deterministic order.

    @raise Invalid_argument if [t < 0], [t > length l], or the family would
    exceed {!max_subsets} elements. *)

val max_subsets : int
(** Safety cap ([100_000]) on the family size. *)
