(* Exact convex geometry in R^3.

   A polytope is carried as boundary face rings aligned with their outward
   supporting halfspaces. The safe area ⋂ conv(S) over the (m − t)-subsets
   S of a multiset is built by supporting-plane enumeration over point
   triples (the sets here are at most a few dozen protocol values, so the
   cubic triple scan is far below a single LP solve) and by successively
   clipping a padded bounding box with every supporting halfspace.
   Clipping one halfspace is Sutherland–Hodgman on each face ring plus
   reconstruction of the cap face, O(total boundary size).

   The subsets share their geometry: a triple of multiset indices spans
   the same plane in every subset that contains it, so each triple's unit
   normal and offset are computed once, and a subset only takes the
   max/min of its own members' projections. The clipper works on flat
   float arrays and double-buffers the polytope, so a redundant plane
   costs one allocation-free scan of the vertices.

   Everything is a deterministic pure function of the input coordinate
   bits: triple and subset enumeration orders are fixed, each subset's
   supporting planes are sorted, ties in the cap-face angular order break
   on the lexicographic vector order. Degenerate inputs (affinely
   dependent point sets, slivers thinner than the tolerance band) are
   *reported*, never guessed at — the caller falls back to the LP-backed
   implicit kernel, so numerical robustness here costs accuracy of the
   fast path, not correctness. *)

type halfspace = { n : Vec.t; o : float }  (* unit [n]; region [n·x ≤ o] *)

type poly = {
  faces : (Vec.t array * halfspace) array;
  scale : float;  (* clip-box diagonal: the reference for tolerances *)
  mutable verts : Vec.t list option;  (* lazy deduped, sorted vertex list *)
}

let coords (v : Vec.t) = (v :> float array)

let cross a b =
  let a = coords a and b = coords b in
  Vec.of_array
    [|
      (a.(1) *. b.(2)) -. (a.(2) *. b.(1));
      (a.(2) *. b.(0)) -. (a.(0) *. b.(2));
      (a.(0) *. b.(1)) -. (a.(1) *. b.(0));
    |]

(* Tolerances: [tol p] bounds distances considered zero, relative to the
   clip-box diagonal so the kernel is scale-invariant. *)
let tol p = 1e-9 *. p.scale

(* [Vec.compare] on the normals, then the offsets, spelled out for R^3 *)
let compare_halfspace h1 h2 =
  let a = coords h1.n and b = coords h2.n in
  let c = Float.compare a.(0) b.(0) in
  if c <> 0 then c
  else
    let c = Float.compare a.(1) b.(1) in
    if c <> 0 then c
    else
      let c = Float.compare a.(2) b.(2) in
      if c <> 0 then c else Float.compare h1.o h2.o

(* Tolerance dedupe of an unordered point cloud: lexicographic sort, then
   collapse adjacent near-equal points. Deterministic. *)
let dedupe_cloud ~tol pts =
  match List.sort Vec.compare pts with
  | [] -> []
  | p :: rest ->
      List.rev
        (List.fold_left
           (fun acc q ->
             match acc with
             | last :: _ when Vec.dist last q <= tol -> acc
             | _ -> q :: acc)
           [ p ] rest)

(* A deterministic orthonormal basis (u, v) of the plane orthogonal to the
   unit vector [n]: project out the least-aligned coordinate axis. *)
let plane_basis n =
  let nc = coords n in
  let k = ref 0 in
  for i = 1 to 2 do
    if Float.abs nc.(i) < Float.abs nc.(!k) then k := i
  done;
  let e = Vec.basis ~dim:3 !k 1. in
  let u =
    match Vec.normalize (Vec.sub e (Vec.scale (Vec.dot n e) n)) with
    | Some u -> u
    | None -> assert false (* |n·e_k| ≤ 1/√3 < 1 *)
  in
  (u, cross n u)

(* --- flat polytopes under construction ---

   Face [f]'s ring is vertices [start.(f)] .. [start.(f + 1) - 1] of [xyz]
   (three floats per vertex), and its outward plane is
   [pl.(4f) .. pl.(4f + 3)] = (nx, ny, nz, o). The arithmetic below spells
   out the [Vec] operations the kernel is specified by ([Vec.dot] folds
   from [0.], [Vec.dist] is the root of a folded sum of squares), operand
   for operand, so results keep their bits. *)

type work = {
  mutable xyz : float array;
  mutable nv : int;
  mutable start : int array;
  mutable pl : float array;
  mutable nf : int;
}

let work_create () =
  {
    xyz = Array.make (3 * 64) 0.;
    nv = 0;
    start = Array.make 17 0;
    pl = Array.make (4 * 16) 0.;
    nf = 0;
  }

let work_reset w =
  w.nv <- 0;
  w.nf <- 0;
  w.start.(0) <- 0

let grow a need =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0. in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let[@inline] push_vertex w x y z =
  if 3 * (w.nv + 1) > Array.length w.xyz then
    w.xyz <- grow w.xyz (3 * (w.nv + 1));
  let i = 3 * w.nv in
  w.xyz.(i) <- x;
  w.xyz.(i + 1) <- y;
  w.xyz.(i + 2) <- z;
  w.nv <- w.nv + 1

(* Close the ring begun at [start.(nf)] as a face with plane (n, o). *)
let close_face w nx ny nz o =
  if w.nf + 2 > Array.length w.start then begin
    let s = Array.make (2 * Array.length w.start) 0 in
    Array.blit w.start 0 s 0 (Array.length w.start);
    w.start <- s
  end;
  w.pl <- grow w.pl (4 * (w.nf + 1));
  let j = 4 * w.nf in
  w.pl.(j) <- nx;
  w.pl.(j + 1) <- ny;
  w.pl.(j + 2) <- nz;
  w.pl.(j + 3) <- o;
  w.nf <- w.nf + 1;
  w.start.(w.nf) <- w.nv

(* [Vec.dot n v] for [v] at [a.(i)] *)
let[@inline] dot3 n0 n1 n2 a i =
  0. +. (n0 *. a.(i)) +. (n1 *. a.(i + 1)) +. (n2 *. a.(i + 2))

(* [Vec.dist] between the points at [a.(i)] and [b.(j)] *)
let[@inline] dist3 a i b j =
  let d0 = a.(i) -. b.(j) and d1 = a.(i + 1) -. b.(j + 1) in
  let d2 = a.(i + 2) -. b.(j + 2) in
  sqrt (0. +. (d0 *. d0) +. (d1 *. d1) +. (d2 *. d2))

let lex3 a i b j =
  let c = Float.compare a.(i) b.(j) in
  if c <> 0 then c
  else
    let c = Float.compare a.(i + 1) b.(j + 1) in
    if c <> 0 then c else Float.compare a.(i + 2) b.(j + 2)

(* The clip-box: an axis-aligned box strictly containing the target
   region, face rings ordered as simple cycles. *)
let load_box w ~lo ~hi =
  work_reset w;
  let lx = lo.(0) and ly = lo.(1) and lz = lo.(2) in
  let hx = hi.(0) and hy = hi.(1) and hz = hi.(2) in
  let face ring nx ny nz o =
    List.iter (fun (x, y, z) -> push_vertex w x y z) ring;
    close_face w nx ny nz o
  in
  let c000 = (lx, ly, lz) and c001 = (lx, ly, hz) in
  let c010 = (lx, hy, lz) and c011 = (lx, hy, hz) in
  let c100 = (hx, ly, lz) and c101 = (hx, ly, hz) in
  let c110 = (hx, hy, lz) and c111 = (hx, hy, hz) in
  face [ c000; c001; c011; c010 ] (-1.) 0. 0. (-.lx);
  face [ c100; c110; c111; c101 ] 1. 0. 0. hx;
  face [ c000; c100; c101; c001 ] 0. (-1.) 0. (-.ly);
  face [ c010; c011; c111; c110 ] 0. 1. 0. hy;
  face [ c000; c010; c110; c100 ] 0. 0. (-1.) (-.lz);
  face [ c001; c101; c111; c011 ] 0. 0. 1. hz

(* Scratch of one clipping run: signed distances of the source vertices
   and the cap-face candidates. *)
type scratch = {
  mutable dist : float array;
  mutable cap : float array;
  mutable ncap : int;
}

(* Clip [src] with the halfspace [h] into [dst]. [`Unchanged] when every
   vertex is already inside (the plane is redundant — [src] stands, [dst]
   is untouched), [`Empty] when no vertex is strictly inside,
   [`Degenerate] when the result is thinner than the tolerance band (fewer
   than four surviving faces). *)
let clip ~eps sc src dst h =
  let n = coords h.n and o = h.o in
  let n0 = n.(0) and n1 = n.(1) and n2 = n.(2) in
  let xyz = src.xyz in
  sc.dist <- grow sc.dist src.nv;
  let ds = sc.dist in
  let any_out = ref false and any_in = ref false in
  for v = 0 to src.nv - 1 do
    let d = dot3 n0 n1 n2 xyz (3 * v) -. o in
    ds.(v) <- d;
    if d > eps then any_out := true else if d < -.eps then any_in := true
  done;
  if not !any_out then `Unchanged
  else if not !any_in then `Empty
  else begin
    work_reset dst;
    sc.ncap <- 0;
    for f = 0 to src.nf - 1 do
      let s = src.start.(f) and k = src.start.(f + 1) - src.start.(f) in
      let first = dst.nv in
      for i = 0 to k - 1 do
        let c = s + i and nx = s + ((i + 1) mod k) in
        let dc = ds.(c) and dn = ds.(nx) in
        let ic = dc <= eps and inext = dn <= eps in
        if ic then
          push_vertex dst xyz.(3 * c) xyz.((3 * c) + 1) xyz.((3 * c) + 2);
        if ic <> inext then begin
          let denom = dc -. dn in
          if Float.abs denom > 0. then begin
            let t = dc /. denom in
            let c3 = 3 * c and n3 = 3 * nx in
            push_vertex dst
              (xyz.(c3) +. (t *. (xyz.(n3) -. xyz.(c3))))
              (xyz.(c3 + 1) +. (t *. (xyz.(n3 + 1) -. xyz.(c3 + 1))))
              (xyz.(c3 + 2) +. (t *. (xyz.(n3 + 2) -. xyz.(c3 + 2))))
          end
        end
      done;
      (* Collapse runs of near-identical consecutive vertices, keeping the
         last of each run, then drop the last vertex if it closes onto the
         first. Compaction in place: the write index never passes the
         read index. *)
      let out = dst.xyz and last = dst.nv - 1 in
      let w = ref first in
      for r = first to last do
        if r = last || not (dist3 out (3 * r) out (3 * (r + 1)) <= eps)
        then begin
          if !w <> r then Array.blit out (3 * r) out (3 * !w) 3;
          incr w
        end
      done;
      let cnt = !w - first in
      let cnt =
        if cnt < 2 then 0
        else if dist3 out (3 * (first + cnt - 1)) out (3 * first) <= eps then
          cnt - 1
        else cnt
      in
      if cnt >= 3 then begin
        dst.nv <- first + cnt;
        for r = first to first + cnt - 1 do
          if Float.abs (dot3 n0 n1 n2 out (3 * r) -. o) <= 4. *. eps then begin
            sc.cap <- grow sc.cap (3 * (sc.ncap + 1));
            Array.blit out (3 * r) sc.cap (3 * sc.ncap) 3;
            sc.ncap <- sc.ncap + 1
          end
        done;
        let p = 4 * f in
        close_face dst src.pl.(p) src.pl.(p + 1) src.pl.(p + 2) src.pl.(p + 3)
      end
      else dst.nv <- first
    done;
    (* The cap face: every surviving boundary point on the clip plane. Its
       vertices all also lie on two adjacent side faces, so the ring is
       recoverable by angular ordering. Candidates are taken newest first,
       sorted stably, and near-duplicates collapsed onto the first kept. *)
    let cap = sc.cap in
    let order = Array.init sc.ncap (fun i -> sc.ncap - 1 - i) in
    Array.stable_sort (fun a b -> lex3 cap (3 * a) cap (3 * b)) order;
    let kept = ref [] and nk = ref 0 in
    Array.iter
      (fun q ->
        match !kept with
        | last :: _ when dist3 cap (3 * last) cap (3 * q) <= eps -> ()
        | _ ->
            kept := q :: !kept;
            incr nk)
      order;
    if !nk >= 3 then begin
      let pts = Array.of_list (List.rev !kept) in
      (* centroid, as [Vec.centroid]: weight-scaled first point, then
         weighted accumulation in order *)
      let wt = 1. /. float_of_int !nk in
      let c = Array.init 3 (fun i -> wt *. cap.((3 * pts.(0)) + i)) in
      for j = 1 to !nk - 1 do
        for i = 0 to 2 do
          c.(i) <- c.(i) +. (wt *. cap.((3 * pts.(j)) + i))
        done
      done;
      let u, v = plane_basis h.n in
      let u = coords u and v = coords v in
      let angle q =
        let d0 = cap.(3 * q) -. c.(0) and d1 = cap.((3 * q) + 1) -. c.(1) in
        let d2 = cap.((3 * q) + 2) -. c.(2) in
        Float.atan2
          (0. +. (d0 *. v.(0)) +. (d1 *. v.(1)) +. (d2 *. v.(2)))
          (0. +. (d0 *. u.(0)) +. (d1 *. u.(1)) +. (d2 *. u.(2)))
      in
      let ang = Array.map angle pts in
      let idx = Array.init !nk Fun.id in
      Array.stable_sort
        (fun a b ->
          let c = Float.compare ang.(a) ang.(b) in
          if c <> 0 then c else lex3 cap (3 * pts.(a)) cap (3 * pts.(b)))
        idx;
      Array.iter
        (fun i ->
          let q = 3 * pts.(i) in
          push_vertex dst cap.(q) cap.(q + 1) cap.(q + 2))
        idx;
      close_face dst n0 n1 n2 o
    end;
    if dst.nf >= 4 then `Clipped else `Degenerate
  end

let to_poly w ~scale =
  let v3 a i = Vec.of_array [| a.(i); a.(i + 1); a.(i + 2) |] in
  let faces =
    Array.init w.nf (fun f ->
        let s = w.start.(f) in
        let ring =
          Array.init (w.start.(f + 1) - s) (fun i -> v3 w.xyz (3 * (s + i)))
        in
        (ring, { n = v3 w.pl (4 * f); o = w.pl.((4 * f) + 3) }))
  in
  { faces; scale; verts = None }

let bbox pts =
  let lo = [| infinity; infinity; infinity |] in
  let hi = [| neg_infinity; neg_infinity; neg_infinity |] in
  Array.iter
    (fun p ->
      let c = coords p in
      for i = 0 to 2 do
        if c.(i) < lo.(i) then lo.(i) <- c.(i);
        if c.(i) > hi.(i) then hi.(i) <- c.(i)
      done)
    pts;
  (lo, hi)

let diagonal lo hi =
  sqrt
    (((hi.(0) -. lo.(0)) ** 2.)
    +. ((hi.(1) -. lo.(1)) ** 2.)
    +. ((hi.(2) -. lo.(2)) ** 2.))

(* Successively clip a padded box around [lo, hi] (diagonal [diag]) with
   [planes]. Subsets repeat most planes bit for bit, and every repeat is
   clipped again: once the polytope has been rebuilt, a plane it used to
   satisfy can have a vertex just outside its tolerance band, and the
   re-clip moves that vertex. *)
let clip_box ~lo ~hi ~diag planes =
  let pad = 0.125 *. diag in
  for i = 0 to 2 do
    lo.(i) <- lo.(i) -. pad;
    hi.(i) <- hi.(i) +. pad
  done;
  let eps = 1e-9 *. diag in
  let sc = { dist = Array.make 64 0.; cap = Array.make 48 0.; ncap = 0 } in
  let cur = ref (work_create ()) and next = ref (work_create ()) in
  load_box !cur ~lo ~hi;
  let rec go = function
    | [] -> `Poly (to_poly !cur ~scale:diag)
    | h :: rest -> (
        match clip ~eps sc !cur !next h with
        | `Unchanged -> go rest
        | `Clipped ->
            let c = !cur in
            cur := !next;
            next := c;
            go rest
        | (`Empty | `Degenerate) as r -> r)
  in
  go planes

(* The shared plane table: for every index triple i < j < k of [pts] (in
   lexicographic order, numbered from [base.(i * m + j) + k - j - 1]), the
   unit normal of the triple's plane (or none when the triple is
   collinear), its negation, and the offset [n·pts.(i)]. Projections of
   the members are recomputed per subset: a dot product costs about what a
   table lookup does, and a table of all of them would take O(m⁴) floats
   where this one takes O(m³). *)
type triples = {
  pts : Vec.t array;
  base : int array;
  normal : Vec.t array;  (* meaningful iff [spans] *)
  neg : Vec.t array;
  spans : bool array;
  off : float array;
}

let triples pts =
  let m = Array.length pts in
  let count = m * (m - 1) * (m - 2) / 6 in
  let tr =
    {
      pts;
      base = Array.make (m * m) 0;
      normal = Array.make count (Vec.zero 3);
      neg = Array.make count (Vec.zero 3);
      spans = Array.make count false;
      off = Array.make count 0.;
    }
  in
  let id = ref 0 in
  for i = 0 to m - 3 do
    for j = i + 1 to m - 2 do
      tr.base.((i * m) + j) <- !id;
      for k = j + 1 to m - 1 do
        let a = pts.(i) in
        let cr = cross (Vec.sub pts.(j) a) (Vec.sub pts.(k) a) in
        (match Vec.normalize cr with
        | None -> ()
        | Some n ->
            tr.spans.(!id) <- true;
            tr.normal.(!id) <- n;
            tr.neg.(!id) <- Vec.neg n;
            let c = coords n in
            tr.off.(!id) <- dot3 c.(0) c.(1) c.(2) (coords a) 0);
        incr id
      done
    done
  done;
  tr

(* Supporting halfspaces of the hull of the members [idx] of the triple
   table: a triple's plane supports the hull iff every member lies (within
   tolerance) on one side. Offsets take the max projection so all members
   are inside. [None] when the members are affinely dependent (no triple
   spans a proper plane, or some spanning plane has every member in its
   tolerance band). *)
let supporting_planes ~tol tr idx =
  let m = Array.length tr.pts and keep = Array.length idx in
  let exception Flat in
  let planes = ref [] and spanning = ref false in
  try
    for a = 0 to keep - 3 do
      for b = a + 1 to keep - 2 do
        let row = tr.base.((idx.(a) * m) + idx.(b)) - idx.(b) - 1 in
        for c = b + 1 to keep - 1 do
          let id = row + idx.(c) in
          if tr.spans.(id) then begin
            spanning := true;
            let o = tr.off.(id) and nc = coords tr.normal.(id) in
            let n0 = nc.(0) and n1 = nc.(1) and n2 = nc.(2) in
            let hi = ref neg_infinity and lo = ref infinity in
            for q = 0 to keep - 1 do
              let d = dot3 n0 n1 n2 (coords tr.pts.(idx.(q))) 0 in
              if d > !hi then hi := d;
              if d < !lo then lo := d
            done;
            if !hi <= o +. tol && !lo >= o -. tol then raise Flat;
            if !hi <= o +. tol then
              planes := { n = tr.normal.(id); o = !hi } :: !planes;
            if !lo >= o -. tol then
              planes := { n = tr.neg.(id); o = -. !lo } :: !planes
          end
        done
      done
    done;
    if !spanning then Some (List.sort_uniq compare_halfspace !planes)
    else None
  with Flat -> None

let inter_trimmed ~t pts =
  let m = Array.length pts in
  if t < 0 || t > m then invalid_arg "Hull3d.inter_trimmed: need 0 <= t <= m";
  let keep = m - t in
  (* the first subset, indices 0 .. keep-1, seeds the clip box *)
  let lo, hi = bbox (Array.sub pts 0 keep) in
  let diag = diagonal lo hi in
  if not (Float.is_finite diag) || diag <= 0. then `Degenerate
  else begin
    let tol = 1e-9 *. diag in
    let tr = triples pts in
    (* every subset's plane list, in lexicographic subset order (the index
       walk of [Restrict.subsets_arr]); one affinely dependent subset makes
       the whole intersection degenerate *)
    let exception Bail in
    let idx = Array.init keep Fun.id in
    let rec subsets acc =
      match supporting_planes ~tol tr idx with
      | None -> raise Bail
      | Some ps ->
          let acc = ps :: acc in
          let p = ref (keep - 1) in
          while !p >= 0 && idx.(!p) = m - keep + !p do
            decr p
          done;
          if !p < 0 then List.rev acc
          else begin
            idx.(!p) <- idx.(!p) + 1;
            for q = !p + 1 to keep - 1 do
              idx.(q) <- idx.(q - 1) + 1
            done;
            subsets acc
          end
    in
    match subsets [] with
    | exception Bail -> `Degenerate
    | pss -> clip_box ~lo ~hi ~diag (List.concat pss)
  end

let of_points pts =
  if List.length pts < 4 then `Degenerate
  else
    match inter_trimmed ~t:0 (Array.of_list pts) with
    | `Poly _ as r -> r
    | `Empty | `Degenerate -> `Degenerate

let vertices p =
  match p.verts with
  | Some vs -> vs
  | None ->
      let vs =
        dedupe_cloud ~tol:(tol p)
          (Array.to_list p.faces
          |> List.concat_map (fun (ring, _) -> Array.to_list ring))
      in
      p.verts <- Some vs;
      vs

let nfaces p = Array.length p.faces

let halfspaces p = Array.to_list p.faces |> List.map snd

let contains ?(eps = 1e-9) p v =
  Array.for_all (fun (_, { n; o }) -> Vec.dot n v <= o +. eps) p.faces

let diameter_pair p =
  match Vec.diameter_pair (vertices p) with
  | Some pair -> pair
  | None -> assert false (* a poly has ≥ 4 faces, hence ≥ 4 vertices *)

let diameter p =
  let a, b = diameter_pair p in
  Vec.dist a b

let centroid p = Vec.centroid (vertices p)
