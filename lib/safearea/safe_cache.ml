(* Memoised safe-area update values, shared across the parties of one run.
   ΠAA's update rule is a pure function of (kernel, trim, multiset): under
   any schedule where several honest parties assemble the same report
   multiset in the same iteration — which is every party, every iteration,
   in a synchronous run without equivocation — the geometry kernel redoes
   the same O(C(m, m-t)) intersection per party. Keying on the
   canonically-sorted multiset collapses those to one computation. The
   cached vector is exactly what the uncached call would have returned
   (same inputs, deterministic kernel), so results are bit-identical;
   sharing the physical vector is safe because [Vec.t] is immutable. *)

type kernel = [ `Safe_area | `Centroid ]

type key = {
  trim : int;
  kernel : int;  (* 0 = midpoint rule, 1 = centroid rule *)
  vs : Vec.t array; (* sorted by Safe_area.compare_vec_bits *)
}

module H = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.trim = b.trim && a.kernel = b.kernel
    && Array.length a.vs = Array.length b.vs
    &&
    let n = Array.length a.vs in
    let rec go i =
      i = n || (Safe_area.compare_vec_bits a.vs.(i) b.vs.(i) = 0 && go (i + 1))
    in
    go 0

  let hash k =
    let h = ref (((k.trim + 1) * 0x01000193) lxor (k.kernel * 0x9e3779b9)) in
    Array.iter (fun v -> h := (!h * 0x01000193) lxor Vec.hash v) k.vs;
    !h land max_int
end)

type t = {
  tbl : Vec.t option H.t;
  mutable hits : int;
  mutable misses : int;
}

let create () = { tbl = H.create 64; hits = 0; misses = 0 }
let hits t = t.hits
let misses t = t.misses
let size t = H.length t.tbl

let new_value_arr ?(kernel = `Safe_area) cache ~t vs =
  (* Canonicalise the order here so permutations of one multiset share an
     entry; [Safe_area.new_value_arr] re-sorts its own copy, which is
     idempotent and cheap next to the kernel. Keys compare on the bits:
     multisets differing only in the signs of their zeros may have
     results differing in theirs, so they must not share an entry. *)
  let vs = Array.copy vs in
  Array.sort Safe_area.compare_vec_bits vs;
  let kid = match kernel with `Safe_area -> 0 | `Centroid -> 1 in
  let key = { trim = t; kernel = kid; vs } in
  match H.find_opt cache.tbl key with
  | Some r ->
      cache.hits <- cache.hits + 1;
      r
  | None ->
      cache.misses <- cache.misses + 1;
      let r =
        match kernel with
        | `Safe_area -> Safe_area.new_value_arr ~t vs
        | `Centroid -> Safe_area.centroid_value_arr ~t vs
      in
      H.add cache.tbl key r;
      r

let reset t =
  H.reset t.tbl;
  t.hits <- 0;
  t.misses <- 0
