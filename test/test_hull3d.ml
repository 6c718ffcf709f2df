(* The exact D = 3 kernel, differentially against the LP-backed oracle.

   Hull3d is the fast path for D = 3 safe areas; Hullset.Reference (the
   seed one-shot LP implementation) is the ground truth it must agree
   with: containment both ways at ε and diameter within tolerance, over
   random and adversarial point sets. All grids are seeded with the
   repo's SplitMix64 generator, so the cases — and hence the verdicts —
   are identical on every run. *)

let vec3 x y z = Vec.of_list [ x; y; z ]

let poly_exn = function
  | `Poly p -> p
  | `Degenerate -> Alcotest.fail "unexpected `Degenerate"

(* --- unit tests on the primitives --- *)

let unit_cube_pts =
  [
    vec3 0. 0. 0.;
    vec3 1. 0. 0.;
    vec3 0. 1. 0.;
    vec3 1. 1. 0.;
    vec3 0. 0. 1.;
    vec3 1. 0. 1.;
    vec3 0. 1. 1.;
    vec3 1. 1. 1.;
  ]

let test_cube () =
  let p = poly_exn (Hull3d.of_points unit_cube_pts) in
  Alcotest.(check int) "6 faces" 6 (Hull3d.nfaces p);
  Alcotest.(check int) "8 vertices" 8 (List.length (Hull3d.vertices p));
  Alcotest.(check (float 1e-9)) "diameter √3" (sqrt 3.) (Hull3d.diameter p);
  let c = Hull3d.centroid p in
  Alcotest.(check (float 1e-9)) "centroid x" 0.5 (Vec.get c 0);
  Alcotest.(check bool) "contains centre" true
    (Hull3d.contains p (vec3 0.5 0.5 0.5));
  Alcotest.(check bool) "excludes outside" false
    (Hull3d.contains p (vec3 1.5 0.5 0.5))

let test_cube_interior_ignored () =
  (* interior and duplicate generators change nothing *)
  let p =
    poly_exn
      (Hull3d.of_points
         (unit_cube_pts @ [ vec3 0.5 0.5 0.5; vec3 1. 1. 1.; vec3 0.25 0.5 0.5 ]))
  in
  Alcotest.(check int) "still 6 faces" 6 (Hull3d.nfaces p);
  Alcotest.(check int) "still 8 vertices" 8 (List.length (Hull3d.vertices p))

let test_tetrahedron () =
  let p =
    poly_exn
      (Hull3d.of_points
         [ vec3 0. 0. 0.; vec3 2. 0. 0.; vec3 0. 2. 0.; vec3 0. 0. 2. ])
  in
  Alcotest.(check int) "4 faces" 4 (Hull3d.nfaces p);
  Alcotest.(check int) "4 vertices" 4 (List.length (Hull3d.vertices p));
  let a, b = Hull3d.diameter_pair p in
  Alcotest.(check (float 1e-9)) "diameter 2√2" (2. *. sqrt 2.) (Vec.dist a b)

let test_degenerate_inputs () =
  let deg pts =
    match Hull3d.of_points pts with `Degenerate -> true | `Poly _ -> false
  in
  Alcotest.(check bool) "too few points" true
    (deg [ vec3 0. 0. 0.; vec3 1. 0. 0.; vec3 0. 1. 0. ]);
  Alcotest.(check bool) "coplanar" true
    (deg [ vec3 0. 0. 0.; vec3 1. 0. 0.; vec3 0. 1. 0.; vec3 1. 1. 0. ]);
  Alcotest.(check bool) "collinear" true
    (deg [ vec3 0. 0. 0.; vec3 1. 1. 1.; vec3 2. 2. 2.; vec3 3. 3. 3. ]);
  Alcotest.(check bool) "all equal" true
    (deg (List.init 5 (fun _ -> vec3 1. 2. 3.)))

let sorted pts =
  let a = Array.of_list pts in
  Array.sort Vec.compare a;
  a

let test_inter_trimmed () =
  (* dropping any one cube corner cuts it off along the plane through its
     three neighbours: the eight cuts leave the octahedron spanned by the
     face centres *)
  (match Hull3d.inter_trimmed ~t:1 (sorted unit_cube_pts) with
  | `Poly p ->
      Alcotest.(check int) "8 faces" 8 (Hull3d.nfaces p);
      Alcotest.(check int) "6 vertices" 6 (List.length (Hull3d.vertices p));
      Alcotest.(check (float 1e-9)) "diameter 1" 1. (Hull3d.diameter p);
      Alcotest.(check bool) "octahedron member" true
        (Hull3d.contains p (vec3 0.5 0.5 0.5));
      Alcotest.(check bool) "cut-off corner" false
        (Hull3d.contains p (vec3 0.1 0.1 0.1))
  | `Empty | `Degenerate -> Alcotest.fail "expected a proper intersection");
  (* two far tetrahedra, t = 4: each one alone is a kept subset *)
  (match
     Hull3d.inter_trimmed ~t:4
       (sorted
          [
            vec3 0. 0. 0.;
            vec3 1. 0.1 0.2;
            vec3 0.3 1. 0.1;
            vec3 0.2 0.4 1.;
            vec3 10. 0.5 0.7;
            vec3 10.9 0.2 0.4;
            vec3 10.1 1.3 0.3;
            vec3 10.2 0.3 1.6;
          ])
   with
  | `Empty -> ()
  | `Poly _ | `Degenerate -> Alcotest.fail "expected `Empty");
  Alcotest.check_raises "t > m"
    (Invalid_argument "Hull3d.inter_trimmed: need 0 <= t <= m") (fun () ->
      ignore (Hull3d.inter_trimmed ~t:9 (sorted unit_cube_pts)))

(* --- the shared-geometry kernel vs the per-subset oracle --- *)

let bits_equal a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let vec_bits_equal u v =
  List.equal bits_equal (Vec.to_list u) (Vec.to_list v)

(* [Hull3d.inter_trimmed] must reproduce the per-subset path bit for bit:
   the same routing, and on [`Poly] the same vertices and face halfspaces
   in the same order. *)
let same_as_oracle ~t vs =
  match
    ( Hull3d.inter_trimmed ~t vs,
      Oracle.Hull3d.inter_hulls (Restrict.subsets_arr ~t vs) )
  with
  | `Poly p, `Poly q ->
      List.equal vec_bits_equal (Hull3d.vertices p) (Oracle.Hull3d.vertices q)
      && List.equal
           (fun (n, o) (n', o') -> vec_bits_equal n n' && bits_equal o o')
           (List.map
              (fun (h : Hull3d.halfspace) -> (h.n, h.o))
              (Hull3d.halfspaces p))
           (List.map
              (fun (h : Oracle.Hull3d.halfspace) -> (h.n, h.o))
              (Oracle.Hull3d.halfspaces q))
  | `Empty, `Empty | `Degenerate, `Degenerate -> true
  | _ -> false

let routing ~t vs =
  match Hull3d.inter_trimmed ~t vs with
  | `Poly _ -> 0
  | `Empty -> 1
  | `Degenerate -> 2

(* Seeded multisets of five shapes, m = 5..12, t = 1..3 (t < m - 2 so a
   kept subset can span space). *)
let oracle_case rng ~shape ~m =
  let r a = Rng.float_range rng (-.a) a in
  let gen () = vec3 (r 10.) (r 10.) (r 10.) in
  match shape with
  | 0 -> List.init m (fun _ -> gen ())
  | 1 ->
      (* duplicates: a few points, each repeated *)
      let base = Array.init (max 4 (m / 2)) (fun _ -> gen ()) in
      List.init m (fun i -> base.(i mod Array.length base))
  | 2 ->
      (* far outliers, as Byzantine extreme inputs *)
      List.init m (fun i ->
          if i < 2 then vec3 1e4 (1e4 +. r 1.) (1e4 -. r 1.) else gen ())
  | 3 ->
      (* coplanar except for at most one point off the plane *)
      List.init m (fun i ->
          vec3 (r 10.) (r 10.) (if i = 0 && Rng.bool rng then 3. else 0.))
  | _ ->
      (* clustered: tight clouds around far-from-origin centres *)
      let c = vec3 (5. +. r 100.) (r 100.) (r 100.) in
      List.init m (fun i ->
          let off = if i mod 3 = 0 then vec3 1. 2. 0.5 else Vec.zero 3 in
          Vec.add (Vec.add c off) (vec3 (r 0.01) (r 0.01) (r 0.01)))

let test_oracle_grid () =
  let rng = Rng.create 1207L in
  let cases = ref 0 and routes = Array.make 3 0 in
  for shape = 0 to 4 do
    for m = 5 to 12 do
      for t = 1 to min 3 (m - 3) do
        for rep = 1 to 5 do
          let vs = sorted (oracle_case rng ~shape ~m) in
          incr cases;
          let r = routing ~t vs in
          routes.(r) <- routes.(r) + 1;
          if not (same_as_oracle ~t vs) then
            Alcotest.failf "shape=%d m=%d t=%d rep=%d differs from the oracle"
              shape m t rep
        done
      done
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d cases (poly %d, empty %d, degenerate %d)" !cases
       routes.(0) routes.(1) routes.(2))
    true
    (!cases >= 500 && routes.(0) > 0 && routes.(1) > 0 && routes.(2) > 0)

(* --- differential grid vs the LP oracle --- *)

let eps_member = 1e-6

(* One case: compare the Safe_area D = 3 result against the reference
   one-shot LP queries on the very same trimmed-subset family. *)
let check_case ~name ~t pts =
  let vs = Array.of_list pts in
  Array.sort Vec.compare vs;
  (* t < |M| is a caller invariant of Safe_area.compute *)
  match Safe_area.compute_arr ~t vs with
  | None ->
      (* the exact kernel never decides emptiness alone: the LP must agree *)
      let hs = Hullset.of_arrays (Restrict.subsets_arr ~t vs) in
      Alcotest.(check bool) (name ^ ": reference agrees empty") true
        (Hullset.is_empty hs)
  | Some (Safe_area.Spatial p) -> (
      let hs = Hullset.of_arrays (Restrict.subsets_arr ~t vs) in
      (* every polytope vertex is in the reference intersection *)
      List.iter
        (fun v ->
          if not (Hullset.contains ~eps:eps_member hs v) then
            Alcotest.failf "%s: hull3d vertex %s outside reference" name
              (Vec.to_string v))
        (Hull3d.vertices p);
      (* the reference's witness points are in the polytope *)
      (match Hullset.Reference.find_point hs with
      | None -> Alcotest.failf "%s: reference empty but hull3d non-empty" name
      | Some q ->
          Alcotest.(check bool)
            (name ^ ": reference point inside")
            true
            (Hull3d.contains ~eps:eps_member p q));
      match Hullset.Reference.diameter_pair hs with
      | None -> Alcotest.failf "%s: reference diameter missing" name
      | Some (a, b) ->
          Alcotest.(check bool)
            (name ^ ": reference pair inside")
            true
            (Hull3d.contains ~eps:eps_member p a
            && Hull3d.contains ~eps:eps_member p b);
          let d3 = Hull3d.diameter p and dref = Vec.dist a b in
          (* the exact diameter dominates the LP search's lower bound and
             stays within its convergence band *)
          if d3 +. 1e-6 < dref then
            Alcotest.failf "%s: exact diameter %.9g below reference %.9g" name
              d3 dref;
          if d3 > (dref *. 1.25) +. 1e-6 then
            Alcotest.failf
              "%s: exact diameter %.9g implausibly above reference %.9g" name
              d3 dref)
  | Some (Safe_area.Implicit _) ->
      (* degenerate fallback: the LP kernel is the oracle itself; nothing to
         compare, but the arm choice must be deterministic — recompute *)
      let again =
        match Safe_area.compute_arr ~t vs with
        | Some (Safe_area.Implicit _) -> true
        | _ -> false
      in
      Alcotest.(check bool) (name ^ ": fallback deterministic") true again
  | Some _ -> Alcotest.failf "%s: non-D-3 representation" name

let test_differential_random () =
  let rng = Rng.create 2026L in
  for n = 4 to 8 do
    for t = 1 to min 2 (n - 2) do
      for rep = 1 to 6 do
        let pts =
          List.init n (fun _ ->
              vec3
                (Rng.float_range rng (-10.) 10.)
                (Rng.float_range rng (-10.) 10.)
                (Rng.float_range rng (-10.) 10.))
        in
        check_case ~name:(Printf.sprintf "rand n=%d t=%d rep=%d" n t rep) ~t
          pts
      done
    done
  done

let test_differential_adversarial () =
  let rng = Rng.create 4096L in
  (* clustered: two tight clouds far apart *)
  for rep = 1 to 4 do
    let cloud c k =
      List.init k (fun _ ->
          Vec.add c
            (vec3
               (Rng.float_range rng (-0.01) 0.01)
               (Rng.float_range rng (-0.01) 0.01)
               (Rng.float_range rng (-0.01) 0.01)))
    in
    check_case
      ~name:(Printf.sprintf "clusters rep=%d" rep)
      ~t:1
      (cloud (vec3 (-5.) 0. 0.) 4 @ cloud (vec3 5. 1. 1.) 4)
  done;
  (* duplicates surviving the trim *)
  check_case ~name:"duplicates" ~t:1
    [
      vec3 0. 0. 0.;
      vec3 0. 0. 0.;
      vec3 4. 0. 0.;
      vec3 0. 4. 0.;
      vec3 0. 0. 4.;
      vec3 1. 1. 1.;
    ];
  (* coplanar multiset: must fall back (degenerate) and stay consistent *)
  check_case ~name:"coplanar" ~t:1
    [
      vec3 0. 0. 0.;
      vec3 1. 0. 0.;
      vec3 0. 1. 0.;
      vec3 1. 1. 0.;
      vec3 0.5 0.5 0.;
    ];
  (* near-coplanar: thickness far below the membership tolerance *)
  check_case ~name:"near-coplanar" ~t:1
    [
      vec3 0. 0. 0.;
      vec3 1. 0. 0.;
      vec3 0. 1. 0.;
      vec3 1. 1. 1e-12;
      vec3 0.5 0.25 0.;
    ];
  (* simplex corners with an outlier the trim removes *)
  check_case ~name:"simplex+outlier" ~t:1
    [
      vec3 0. 0. 0.;
      vec3 10. 0. 0.;
      vec3 0. 10. 0.;
      vec3 0. 0. 10.;
      vec3 3. 3. 3.;
      vec3 1000. 1000. 1000.;
    ];
  (* a scaled-down copy of the same shape: tolerance must be relative *)
  check_case ~name:"tiny scale" ~t:1
    (List.map
       (fun v -> Vec.scale 1e-6 v)
       [
         vec3 0. 0. 0.;
         vec3 10. 0. 0.;
         vec3 0. 10. 0.;
         vec3 0. 0. 10.;
         vec3 3. 3. 3.;
         vec3 9. 9. 9.;
       ])

(* --- the centroid update kernel stays inside the area --- *)

let test_centroid_value_in_area () =
  let rng = Rng.create 77L in
  for d = 1 to 4 do
    for rep = 1 to 8 do
      let n = 5 + (rep mod 3) in
      let pts =
        List.init n (fun _ ->
            Vec.of_list
              (List.init d (fun _ -> Rng.float_range rng (-10.) 10.)))
      in
      let vs = Array.of_list pts in
      match Safe_area.compute_arr ~t:1 vs with
      | None -> ()
      | Some area ->
          let c = Safe_area.centroid_value area in
          Alcotest.(check bool)
            (Printf.sprintf "centroid in area d=%d rep=%d" d rep)
            true
            (Safe_area.contains ~eps:1e-6 area c);
          (match Safe_area.centroid_value_arr ~t:1 vs with
          | Some c' ->
              Alcotest.(check bool) "centroid_value_arr consistent" true
                (Vec.compare c c' = 0)
          | None -> Alcotest.fail "centroid_value_arr empty");
          (* D = 1: the interval centroid IS the midpoint rule *)
          if d = 1 then
            match Safe_area.new_value_arr ~t:1 vs with
            | Some m ->
                Alcotest.(check bool) "1-D centroid ≡ midpoint" true
                  (Vec.compare c m = 0)
            | None -> Alcotest.fail "midpoint missing"
    done
  done

let () =
  Alcotest.run "hull3d"
    [
      ( "primitives",
        [
          Alcotest.test_case "unit cube" `Quick test_cube;
          Alcotest.test_case "interior points ignored" `Quick
            test_cube_interior_ignored;
          Alcotest.test_case "tetrahedron" `Quick test_tetrahedron;
          Alcotest.test_case "degenerate inputs" `Quick test_degenerate_inputs;
          Alcotest.test_case "hull intersection" `Quick test_inter_trimmed;
        ] );
      ( "differential",
        [
          Alcotest.test_case "shared geometry vs per-subset oracle" `Quick
            test_oracle_grid;
          Alcotest.test_case "random grid vs reference" `Quick
            test_differential_random;
          Alcotest.test_case "adversarial sets vs reference" `Quick
            test_differential_adversarial;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "centroid value stays in area" `Quick
            test_centroid_value_in_area;
        ] );
    ]
