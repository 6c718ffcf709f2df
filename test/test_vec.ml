(* Unit and property tests for the Vec and Pairset modules. *)

let vec = Alcotest.testable Vec.pp (fun a b -> Vec.compare a b = 0)

let test_basics () =
  let v = Vec.of_list [ 1.; 2.; 3. ] in
  Alcotest.(check int) "dim" 3 (Vec.dim v);
  Alcotest.(check (float 1e-12)) "get" 2. (Vec.get v 1);
  Alcotest.(check vec) "add" (Vec.of_list [ 2.; 4.; 6. ]) (Vec.add v v);
  Alcotest.(check vec) "sub" (Vec.zero 3) (Vec.sub v v);
  Alcotest.(check vec) "scale" (Vec.of_list [ 2.; 4.; 6. ]) (Vec.scale 2. v);
  Alcotest.(check vec) "neg" (Vec.of_list [ -1.; -2.; -3. ]) (Vec.neg v);
  Alcotest.(check (float 1e-12)) "dot" 14. (Vec.dot v v);
  Alcotest.(check (float 1e-12)) "norm" (sqrt 14.) (Vec.norm v)

let test_basis () =
  let e1 = Vec.basis ~dim:3 1 5. in
  Alcotest.(check vec) "basis" (Vec.of_list [ 0.; 5.; 0. ]) e1;
  Alcotest.check_raises "out of range" (Invalid_argument "Vec.basis")
    (fun () -> ignore (Vec.basis ~dim:2 2 1.))

let test_dist () =
  let a = Vec.of_list [ 0.; 0. ] and b = Vec.of_list [ 3.; 4. ] in
  Alcotest.(check (float 1e-12)) "dist 3-4-5" 5. (Vec.dist a b);
  Alcotest.(check (float 1e-12)) "dist2" 25. (Vec.dist2 a b);
  Alcotest.(check vec) "midpoint" (Vec.of_list [ 1.5; 2. ]) (Vec.midpoint a b)

let test_lincomb () =
  let a = Vec.of_list [ 1.; 0. ] and b = Vec.of_list [ 0.; 1. ] in
  Alcotest.(check vec) "lincomb"
    (Vec.of_list [ 0.25; 0.75 ])
    (Vec.lincomb [ (0.25, a); (0.75, b) ]);
  Alcotest.check_raises "empty" (Invalid_argument "Vec.lincomb: empty list")
    (fun () -> ignore (Vec.lincomb []))

let test_compare () =
  let a = Vec.of_list [ 1.; 2. ] and b = Vec.of_list [ 1.; 3. ] in
  Alcotest.(check bool) "lt" true (Vec.compare a b < 0);
  Alcotest.(check bool) "gt" true (Vec.compare b a > 0);
  Alcotest.(check bool) "eq" true (Vec.compare a a = 0);
  Alcotest.(check bool) "shorter first" true
    (Vec.compare (Vec.of_list [ 9. ]) a < 0);
  (* Float.compare per coordinate: ±0 and all NaNs are one class each,
     NaN sorts below every number *)
  let v l = Vec.of_list l in
  Alcotest.(check int) "±0 equal" 0 (Vec.compare (v [ 1.; -0. ]) (v [ 1.; 0. ]));
  Alcotest.(check int) "NaNs equal" 0
    (Vec.compare (v [ Float.nan ]) (v [ 0. /. 0. ]));
  Alcotest.(check int) "NaN first" (-1)
    (Vec.compare (v [ 1.; Float.nan ]) (v [ 1.; Float.neg_infinity ]));
  Alcotest.(check bool) "equal_exact ±0" true
    (Vec.equal_exact (v [ -0.; 2. ]) (v [ 0.; 2. ]));
  Alcotest.(check bool) "equal_exact NaN" true
    (Vec.equal_exact (v [ Float.nan ]) (v [ 0. /. 0. ]));
  Alcotest.(check bool) "equal_exact lengths" false
    (Vec.equal_exact (v [ 1. ]) (v [ 1.; 2. ]));
  Alcotest.(check bool) "equal_exact last coordinate" false
    (Vec.equal_exact (v [ 1.; 2. ]) (v [ 1.; 3. ]))

(* [Intern] calls [equal_exact] on every hit: neither comparison may
   allocate. Equal vectors walk every coordinate. *)
let test_compare_allocates_nothing () =
  let a = Vec.of_list [ 1.; -0. ] and b = Vec.of_list [ 1.; 0. ] in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    acc := !acc + Vec.compare a b
  done;
  let compare_words = Gc.minor_words () -. before in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    if Vec.equal_exact a b then incr acc
  done;
  let equal_words = Gc.minor_words () -. before in
  Alcotest.(check int) "±0 compare equal" 100_000 !acc;
  Alcotest.(check (float 0.)) "minor words for 100k Vec.compare" 0.
    compare_words;
  Alcotest.(check (float 0.)) "minor words for 100k Vec.equal_exact" 0.
    equal_words

let test_normalize () =
  (match Vec.normalize (Vec.of_list [ 3.; 4. ]) with
  | Some n -> Alcotest.(check (float 1e-12)) "unit" 1. (Vec.norm n)
  | None -> Alcotest.fail "normalize failed");
  Alcotest.(check bool) "zero" true (Vec.normalize (Vec.zero 2) = None)

let test_diameter () =
  let pts =
    [ Vec.of_list [ 0.; 0. ]; Vec.of_list [ 1.; 0. ]; Vec.of_list [ 0.; 1. ] ]
  in
  Alcotest.(check (float 1e-12)) "diameter" (sqrt 2.) (Vec.diameter pts);
  (match Vec.diameter_pair pts with
  | Some (a, b) ->
      Alcotest.(check vec) "pair fst" (Vec.of_list [ 0.; 1. ]) a;
      Alcotest.(check vec) "pair snd" (Vec.of_list [ 1.; 0. ]) b
  | None -> Alcotest.fail "no pair");
  Alcotest.(check (float 1e-12)) "singleton" 0. (Vec.diameter [ Vec.zero 2 ]);
  Alcotest.(check (float 1e-12)) "empty" 0. (Vec.diameter [])

let test_diameter_deterministic () =
  (* All four corners of a square: ties between the two diagonals must be
     broken the same way regardless of input order. *)
  let corners =
    [
      Vec.of_list [ 0.; 0. ]; Vec.of_list [ 1.; 0. ];
      Vec.of_list [ 0.; 1. ]; Vec.of_list [ 1.; 1. ];
    ]
  in
  let p1 = Vec.diameter_pair corners in
  let p2 = Vec.diameter_pair (List.rev corners) in
  Alcotest.(check bool) "order independent" true (p1 = p2)

let test_centroid () =
  let pts = [ Vec.of_list [ 0.; 0. ]; Vec.of_list [ 2.; 4. ] ] in
  Alcotest.(check vec) "centroid" (Vec.of_list [ 1.; 2. ]) (Vec.centroid pts)

(* --- Pairset --- *)

let v1 = Vec.of_list [ 1.; 1. ]
let v2 = Vec.of_list [ 2.; 2. ]
let v3 = Vec.of_list [ 3.; 3. ]

let test_pairset_basics () =
  let m = Pairset.empty |> Pairset.add ~party:1 v1 |> Pairset.add ~party:0 v2 in
  Alcotest.(check int) "cardinal" 2 (Pairset.cardinal m);
  Alcotest.(check bool) "mem" true (Pairset.mem_party 1 m);
  Alcotest.(check bool) "not mem" false (Pairset.mem_party 5 m);
  Alcotest.(check (list int)) "parties sorted" [ 0; 1 ] (Pairset.parties m);
  Alcotest.(check (list vec)) "values by party order" [ v2; v1 ]
    (Pairset.values m)

let test_pairset_first_wins () =
  let m = Pairset.empty |> Pairset.add ~party:0 v1 |> Pairset.add ~party:0 v2 in
  Alcotest.(check (option vec)) "first value kept" (Some v1)
    (Pairset.find_party 0 m)

let test_pairset_subset_inter () =
  let m = Pairset.of_bindings [ (0, v1); (1, v2); (2, v3) ] in
  let m' = Pairset.of_bindings [ (0, v1); (1, v2) ] in
  Alcotest.(check bool) "subset" true (Pairset.subset m' m);
  Alcotest.(check bool) "not subset" false (Pairset.subset m m');
  let conflicting = Pairset.of_bindings [ (0, v2) ] in
  Alcotest.(check bool) "subset needs same value" false
    (Pairset.subset conflicting m);
  Alcotest.(check int) "inter" 2 (Pairset.cardinal (Pairset.inter m m'));
  Alcotest.(check int) "inter conflicting" 0
    (Pairset.cardinal (Pairset.inter conflicting m'));
  Alcotest.(check int) "union" 3 (Pairset.cardinal (Pairset.union m' m))

let test_pairset_diameter () =
  let m = Pairset.of_bindings [ (0, v1); (1, v3) ] in
  Alcotest.(check (float 1e-12)) "diameter" (Vec.dist v1 v3)
    (Pairset.diameter m)

(* --- properties --- *)

let gen_vec d =
  QCheck.Gen.(list_repeat d (float_range (-100.) 100.) >|= Vec.of_list)

let arb_vec d = QCheck.make ~print:Vec.to_string (gen_vec d)

let arb_vec_list d =
  QCheck.make
    ~print:(fun l -> String.concat " " (List.map Vec.to_string l))
    QCheck.Gen.(list_size (int_range 1 12) (gen_vec d))

let prop_triangle =
  QCheck.Test.make ~name:"triangle inequality" ~count:300
    (QCheck.triple (arb_vec 3) (arb_vec 3) (arb_vec 3))
    (fun (a, b, c) -> Vec.dist a c <= Vec.dist a b +. Vec.dist b c +. 1e-9)

let prop_diameter_max =
  QCheck.Test.make ~name:"diameter is max pairwise distance" ~count:200
    (arb_vec_list 2) (fun vs ->
      let d = Vec.diameter vs in
      List.for_all
        (fun a -> List.for_all (fun b -> Vec.dist a b <= d +. 1e-9) vs)
        vs)

let prop_diameter_order_independent =
  QCheck.Test.make ~name:"diameter pair is order independent" ~count:200
    (arb_vec_list 2) (fun vs ->
      Vec.diameter_pair vs = Vec.diameter_pair (List.rev vs))

let prop_midpoint_between =
  QCheck.Test.make ~name:"midpoint halves the distance" ~count:300
    (QCheck.pair (arb_vec 4) (arb_vec 4))
    (fun (a, b) ->
      let m = Vec.midpoint a b in
      Float.abs (Vec.dist a m -. (Vec.dist a b /. 2.)) <= 1e-9)

(* [Safe_cache] and [Intern] key tables on [Vec.equal_exact] with
   [Vec.hash], so equal vectors must hash alike. Coordinates come from a
   pool rich in the values [Float.compare] identifies despite different
   bits: both zeros and NaNs with different signs and payloads. The
   partner vector swaps each coordinate for an identified one. *)
let prop_hash_consistent =
  let pool =
    [|
      0.; -0.; Float.nan; -.Float.nan; Int64.float_of_bits 0x7ff0000000000001L;
      Int64.float_of_bits 0xfff4000000000abcL; Float.infinity;
      Float.neg_infinity; 1.; -1.; 5e-324; 1e300;
    |]
  in
  let twin x =
    if Float.is_nan x then Int64.float_of_bits 0x7ff8000000000123L
    else if x = 0. then -.x
    else x
  in
  let gen =
    QCheck.Gen.(
      int_range 1 5 >>= fun d ->
      list_repeat d
        (oneof [ oneofa pool; float_range (-10.) 10. ] >>= fun x ->
         bool >|= fun flip -> (x, if flip then twin x else x))
      >|= List.split)
  in
  QCheck.Test.make ~name:"equal_exact implies equal hash" ~count:500
    (QCheck.make
       ~print:(fun (u, v) ->
         let p l = String.concat "," (List.map (Printf.sprintf "%h") l) in
         p u ^ " / " ^ p v)
       gen)
    (fun (u, v) ->
      let u = Vec.of_list u and v = Vec.of_list v in
      Vec.equal_exact u v && Vec.hash u = Vec.hash v)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "vec"
    [
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "basis" `Quick test_basis;
          Alcotest.test_case "dist" `Quick test_dist;
          Alcotest.test_case "lincomb" `Quick test_lincomb;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "compare allocates nothing" `Quick
            test_compare_allocates_nothing;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "diameter" `Quick test_diameter;
          Alcotest.test_case "diameter deterministic" `Quick
            test_diameter_deterministic;
          Alcotest.test_case "centroid" `Quick test_centroid;
        ] );
      ( "pairset",
        [
          Alcotest.test_case "basics" `Quick test_pairset_basics;
          Alcotest.test_case "first value wins" `Quick test_pairset_first_wins;
          Alcotest.test_case "subset/inter/union" `Quick
            test_pairset_subset_inter;
          Alcotest.test_case "diameter" `Quick test_pairset_diameter;
        ] );
      ( "vec properties",
        q
          [
            prop_triangle;
            prop_diameter_max;
            prop_diameter_order_independent;
            prop_midpoint_between;
            prop_hash_consistent;
          ] );
    ]
