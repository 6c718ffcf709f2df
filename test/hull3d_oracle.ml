(* The per-subset D = 3 safe-area kernel that [Hull3d.inter_trimmed]
   replaced, kept as the differential oracle: every subset's supporting
   planes are enumerated from its own point triples, every plane is
   clipped (duplicates included), and the polytope is carried as lists
   and arrays of [Vec.t]. [inter_hulls (Restrict.subsets_arr ~t vs)] must
   agree bit for bit with [Hull3d.inter_trimmed ~t vs]. *)

type halfspace = { n : Vec.t; o : float }  (* unit [n]; region [n·x ≤ o] *)

type poly = {
  faces : (Vec.t array * halfspace) array;
  scale : float;  (* clip-box diagonal: the reference for tolerances *)
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

let compare_halfspace h1 h2 =
  let c = Vec.compare h1.n h2.n in
  if c <> 0 then c else Float.compare h1.o h2.o

(* Collapse a chain of near-identical consecutive points (cyclically). *)
let dedupe_ring ~tol pts =
  let close a b = Vec.dist a b <= tol in
  let rec go = function
    | a :: (b :: _ as rest) when close a b -> go rest
    | a :: rest -> a :: go rest
    | [] -> []
  in
  match go pts with
  | [] | [ _ ] -> []
  | first :: _ :: _ as l ->
      let rec drop_last = function
        | [ last ] when close last first -> []
        | [] -> []
        | x :: rest -> x :: drop_last rest
      in
      drop_last l

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

(* Order coplanar points into a convex ring: angular sort around their
   centroid in a deterministic in-plane basis, ties broken lexicographically
   (exact duplicates have been removed by the caller). *)
let order_ring n pts =
  let c = Vec.centroid pts in
  let u, v = plane_basis n in
  let angle p =
    let d = Vec.sub p c in
    Float.atan2 (Vec.dot d v) (Vec.dot d u)
  in
  List.sort
    (fun a b ->
      let c = Float.compare (angle a) (angle b) in
      if c <> 0 then c else Vec.compare a b)
    pts

(* Clip [p] with one halfspace. [`Unchanged] when every vertex is already
   inside (the plane is redundant — the caller keeps [p] as is), [`Empty]
   when no vertex is strictly inside, [`Degenerate] when the result is
   thinner than the tolerance band (fewer than four surviving faces). *)
let clip p { n; o } =
  let eps = tol p in
  let dist v = Vec.dot n v -. o in
  let any_out = ref false and any_in = ref false in
  Array.iter
    (fun (ring, _) ->
      Array.iter
        (fun v ->
          let d = dist v in
          if d > eps then any_out := true
          else if d < -.eps then any_in := true)
        ring)
    p.faces;
  if not !any_out then `Unchanged
  else if not !any_in then `Empty
  else begin
    let kept = ref [] in
    let cap = ref [] in
    let on_plane v = Float.abs (dist v) <= 4. *. eps in
    Array.iter
      (fun (ring, plane) ->
        let k = Array.length ring in
        let out = ref [] in
        let push v = out := v :: !out in
        for i = 0 to k - 1 do
          let cur = ring.(i) and next = ring.((i + 1) mod k) in
          let dc = dist cur and dn = dist next in
          let ic = dc <= eps and inext = dn <= eps in
          if ic then push cur;
          if ic <> inext then begin
            let denom = dc -. dn in
            if Float.abs denom > 0. then
              let t = dc /. denom in
              push (Vec.add cur (Vec.scale t (Vec.sub next cur)))
          end
        done;
        match dedupe_ring ~tol:eps (List.rev !out) with
        | _ :: _ :: _ :: _ as ring' ->
            List.iter (fun v -> if on_plane v then cap := v :: !cap) ring';
            kept := (Array.of_list ring', plane) :: !kept
        | _ -> ())
      p.faces;
    (* The cap face: every surviving boundary point on the clip plane. Its
       vertices all also lie on two adjacent side faces, so the ring is
       recoverable by angular ordering. *)
    (match dedupe_cloud ~tol:eps !cap with
    | _ :: _ :: _ :: _ as pts ->
        kept := (Array.of_list (order_ring n pts), { n; o }) :: !kept
    | _ -> ());
    match !kept with
    | _ :: _ :: _ :: _ :: _ as faces ->
        `Poly { p with faces = Array.of_list (List.rev faces) }
    | _ -> `Degenerate
  end

(* The initial clip box: an axis-aligned box strictly containing the target
   region, face rings ordered as simple cycles. *)
let box ~lo ~hi ~scale =
  let v x y z = Vec.of_array [| x; y; z |] in
  let lx = lo.(0) and ly = lo.(1) and lz = lo.(2) in
  let hx = hi.(0) and hy = hi.(1) and hz = hi.(2) in
  let c000 = v lx ly lz and c001 = v lx ly hz in
  let c010 = v lx hy lz and c011 = v lx hy hz in
  let c100 = v hx ly lz and c101 = v hx ly hz in
  let c110 = v hx hy lz and c111 = v hx hy hz in
  let hs x y z o = { n = v x y z; o } in
  let faces =
    [|
      ([| c000; c001; c011; c010 |], hs (-1.) 0. 0. (-.lx));
      ([| c100; c110; c111; c101 |], hs 1. 0. 0. hx);
      ([| c000; c100; c101; c001 |], hs 0. (-1.) 0. (-.ly));
      ([| c010; c011; c111; c110 |], hs 0. 1. 0. hy);
      ([| c000; c010; c110; c100 |], hs 0. 0. (-1.) (-.lz));
      ([| c001; c101; c111; c011 |], hs 0. 0. 1. hz);
    |]
  in
  { faces; scale }

(* Supporting halfspaces of [conv pts] by triple enumeration: a triple's
   plane supports the hull iff every point lies (within tolerance) on one
   side. Offsets take the max projection so all generators are inside.
   [`Degenerate] when the set is affinely dependent (no triple spans a
   proper plane, or some spanning plane has every point in its tolerance
   band). *)
let supporting_planes ~tol pts =
  let m = Array.length pts in
  let planes = ref [] in
  let flat = ref false in
  let spanning = ref false in
  (try
     for i = 0 to m - 3 do
       for j = i + 1 to m - 2 do
         for k = j + 1 to m - 1 do
           let a = pts.(i) and b = pts.(j) and c = pts.(k) in
           let cr = cross (Vec.sub b a) (Vec.sub c a) in
           match Vec.normalize cr with
           | None -> ()
           | Some n ->
               spanning := true;
               let o = Vec.dot n a in
               let hi = ref neg_infinity and lo = ref infinity in
               Array.iter
                 (fun p ->
                   let d = Vec.dot n p in
                   if d > !hi then hi := d;
                   if d < !lo then lo := d)
                 pts;
               if !hi <= o +. tol && !lo >= o -. tol then begin
                 (* every point in the plane's tolerance band: flat set *)
                 flat := true;
                 raise Exit
               end;
               if !hi <= o +. tol then planes := { n; o = !hi } :: !planes;
               if !lo >= o -. tol then
                 planes := { n = Vec.neg n; o = -. !lo } :: !planes
         done
       done
     done
   with Exit -> ());
  if !flat || not !spanning then `Degenerate
  else `Planes (List.sort_uniq compare_halfspace !planes)

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

(* Successively clip a padded bounding box of [seed] with [planes]. *)
let clip_box ~seed planes =
  let lo, hi = bbox seed in
  let diag =
    sqrt
      (((hi.(0) -. lo.(0)) ** 2.)
      +. ((hi.(1) -. lo.(1)) ** 2.)
      +. ((hi.(2) -. lo.(2)) ** 2.))
  in
  if not (Float.is_finite diag) || diag <= 0. then `Degenerate
  else begin
    let pad = 0.125 *. diag in
    for i = 0 to 2 do
      lo.(i) <- lo.(i) -. pad;
      hi.(i) <- hi.(i) +. pad
    done;
    let rec go p = function
      | [] -> `Poly p
      | h :: rest -> (
          match clip p h with
          | `Unchanged -> go p rest
          | `Poly p' -> go p' rest
          | (`Empty | `Degenerate) as r -> r)
    in
    go (box ~lo ~hi ~scale:diag) planes
  end

let inter_hulls hulls =
  if Array.length hulls = 0 then invalid_arg "Hull3d.inter_hulls: no hulls"
  else begin
    let seed = hulls.(0) in
    let lo, hi = bbox seed in
    let diag =
      sqrt
        (((hi.(0) -. lo.(0)) ** 2.)
        +. ((hi.(1) -. lo.(1)) ** 2.)
        +. ((hi.(2) -. lo.(2)) ** 2.))
    in
    if not (Float.is_finite diag) || diag <= 0. then `Degenerate
    else begin
      let tol = 1e-9 *. diag in
      let exception Bail in
      let planes = ref [] in
      (try
         Array.iter
           (fun h ->
             match supporting_planes ~tol h with
             | `Degenerate -> raise Bail
             | `Planes ps -> planes := ps :: !planes)
           hulls
       with Bail -> planes := []);
      match !planes with
      | [] -> `Degenerate
      | pss -> clip_box ~seed (List.concat (List.rev pss))
    end
  end

let vertices p =
  dedupe_cloud ~tol:(tol p)
    (Array.to_list p.faces
    |> List.concat_map (fun (ring, _) -> Array.to_list ring))

let halfspaces p = Array.to_list p.faces |> List.map snd
