(* Tests for restrict_t enumeration and the safe-area machinery, including
   the paper's worked examples (Figure 2 and the Section 5 empty-area
   example). *)

let v = Vec.of_list

(* --- Restrict --- *)

let test_restrict_count () =
  Alcotest.(check int) "C(5,2)" 10 (Restrict.count ~m:5 ~t:2);
  Alcotest.(check int) "C(5,0)" 1 (Restrict.count ~m:5 ~t:0);
  Alcotest.(check int) "C(5,5)" 1 (Restrict.count ~m:5 ~t:5);
  Alcotest.(check int) "C(5,6)" 0 (Restrict.count ~m:5 ~t:6);
  Alcotest.(check int) "C(12,4)" 495 (Restrict.count ~m:12 ~t:4)

let test_restrict_subsets () =
  let subs = Restrict.subsets ~t:1 [ 1; 2; 3 ] in
  Alcotest.(check int) "3 subsets" 3 (List.length subs);
  List.iter
    (fun s -> Alcotest.(check int) "size 2" 2 (List.length s))
    subs;
  let sorted = List.sort compare subs in
  Alcotest.(check bool) "exact family" true
    (sorted = [ [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ]);
  Alcotest.(check bool) "t=0 is identity" true
    (Restrict.subsets ~t:0 [ 1; 2; 3 ] = [ [ 1; 2; 3 ] ])

let test_restrict_invalid () =
  Alcotest.check_raises "bad t" (Invalid_argument "Restrict.subsets: bad t")
    (fun () -> ignore (Restrict.subsets ~t:4 [ 1; 2; 3 ]))

let test_restrict_preserves_order () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "ascending" true (List.sort compare s = s))
    (Restrict.subsets ~t:2 [ 1; 2; 3; 4; 5 ])

(* --- Safe areas, D = 1 --- *)

let floats_1d xs = List.map (fun x -> v [ x ]) xs

let test_safe_1d () =
  match Safe_area.compute ~t:1 (floats_1d [ 0.; 1.; 2.; 3.; 4. ]) with
  | Some (Safe_area.Interval { lo; hi }) ->
      Alcotest.(check (float 1e-12)) "lo" 1. lo;
      Alcotest.(check (float 1e-12)) "hi" 3. hi
  | _ -> Alcotest.fail "expected interval"

let test_safe_1d_point () =
  match Safe_area.compute ~t:2 (floats_1d [ 0.; 1.; 2.; 3.; 4. ]) with
  | Some (Safe_area.Interval { lo; hi }) ->
      Alcotest.(check (float 1e-12)) "lo" 2. lo;
      Alcotest.(check (float 1e-12)) "hi" 2. hi
  | _ -> Alcotest.fail "expected point interval"

let test_safe_1d_empty () =
  Alcotest.(check bool) "empty" true
    (Safe_area.compute ~t:2 (floats_1d [ 0.; 1.; 2.; 3. ]) = None)

let test_safe_1d_duplicates () =
  (* multiset semantics: duplicated values count separately *)
  match Safe_area.compute ~t:1 (floats_1d [ 0.; 0.; 5. ]) with
  | Some (Safe_area.Interval { lo; hi }) ->
      Alcotest.(check (float 1e-12)) "lo" 0. lo;
      Alcotest.(check (float 1e-12)) "hi" 0. hi
  | _ -> Alcotest.fail "expected interval"

let test_safe_1d_new_value () =
  match Safe_area.new_value ~t:1 (floats_1d [ 0.; 1.; 2.; 3.; 4. ]) with
  | Some nv -> Alcotest.(check (float 1e-12)) "midpoint" 2. (Vec.get nv 0)
  | None -> Alcotest.fail "non-empty"

(* --- Safe areas, D = 2: the paper's examples --- *)

(* Figure 2: four points in convex position with t = 1; the safe area is the
   single intersection point of the diagonals. *)
let test_figure2_single_point () =
  let pts = [ v [ 0.; 0. ]; v [ 2.; 0. ]; v [ 2.; 2. ]; v [ 0.; 2. ] ] in
  match Safe_area.compute ~t:1 pts with
  | Some (Safe_area.Planar poly as area) ->
      Alcotest.(check int) "single vertex" 1 (List.length (Polygon.vertices poly));
      Alcotest.(check bool) "is diagonal crossing" true
        (Safe_area.contains area (v [ 1.; 1. ]));
      Alcotest.(check (float 1e-9)) "diameter 0" 0. (Safe_area.diameter area)
  | _ -> Alcotest.fail "expected planar point"

(* interior point variant: safe_1 of a triangle plus an interior point is
   exactly the interior point *)
let test_interior_point () =
  let d = v [ 1.; 1. ] in
  let pts = [ v [ 0.; 0. ]; v [ 4.; 0. ]; v [ 0.; 4. ]; d ] in
  match Safe_area.compute ~t:1 pts with
  | Some area ->
      Alcotest.(check bool) "d in safe" true (Safe_area.contains area d);
      Alcotest.(check (float 1e-6)) "only d" 0. (Safe_area.diameter area);
      let nv = Safe_area.midpoint_value area in
      Alcotest.(check bool) "new value is d" true (Vec.dist nv d <= 1e-6)
  | None -> Alcotest.fail "non-empty"

(* Section 5's motivating example: three honest values with t = ts = 1 give
   an empty safe area — the reason the protocol trims max(k, ta) instead. *)
let test_paper_empty_example () =
  let pts = [ v [ 0.; 0. ]; v [ 0.; 1. ]; v [ 1.; 0. ] ] in
  Alcotest.(check bool) "safe_1 empty" true (Safe_area.compute ~t:1 pts = None);
  (* with the paper's fix, k = 0 and ta = 0 trim nothing *)
  match Safe_area.compute ~t:0 pts with
  | Some area ->
      Alcotest.(check bool) "full hull" true
        (Safe_area.contains area (v [ 0.3; 0.3 ]))
  | None -> Alcotest.fail "safe_0 is the hull itself"

let test_safe_2d_diameter_pair_deterministic () =
  let pts =
    [ v [ 0.; 0. ]; v [ 3.; 0. ]; v [ 3.; 3. ]; v [ 0.; 3. ]; v [ 1.; 1. ] ]
  in
  let area order =
    match Safe_area.compute ~t:1 order with
    | Some a -> Safe_area.diameter_pair a
    | None -> Alcotest.fail "non-empty"
  in
  Alcotest.(check bool) "order independent" true
    (area pts = area (List.rev pts))

(* --- properties --- *)

let gen_pts ~d ~m =
  QCheck.Gen.(list_repeat m (list_repeat d (float_range (-10.) 10.) >|= Vec.of_list))

let print_pts l = String.concat " " (List.map Vec.to_string l)

(* Lemma 5.5 instance: n = 8, ts = 2, ta = 1, D = 2 satisfies
   n > (D+1)ts + ta. With |M| = n - ts + k values, trimming max(k, ta)
   must leave a non-empty area. *)
let prop_lemma_5_5 =
  QCheck.Test.make ~name:"lemma 5.5: safe area non-empty" ~count:60
    (QCheck.make ~print:print_pts
       QCheck.Gen.(int_range 0 2 >>= fun k -> gen_pts ~d:2 ~m:(8 - 2 + k)))
    (fun pts ->
      let n = 8 and ts = 2 and ta = 1 in
      let k = List.length pts - (n - ts) in
      let t = max k ta in
      Safe_area.compute ~t pts <> None)

(* Lemma 5.6: the new value lies in the safe area. *)
let prop_lemma_5_6 =
  QCheck.Test.make ~name:"lemma 5.6: midpoint inside area" ~count:60
    (QCheck.make ~print:print_pts (gen_pts ~d:2 ~m:7))
    (fun pts ->
      match Safe_area.compute ~t:1 pts with
      | None -> QCheck.assume_fail ()
      | Some area ->
          Safe_area.contains ~eps:1e-6 area (Safe_area.midpoint_value area))

(* Lemma 5.7: safe_t(M) is inside the hull of every (|M|-t)-subset. *)
let prop_lemma_5_7 =
  QCheck.Test.make ~name:"lemma 5.7: safe area inside every subset hull"
    ~count:40
    (QCheck.make ~print:print_pts (gen_pts ~d:2 ~m:6))
    (fun pts ->
      match Safe_area.compute ~t:1 pts with
      | None -> QCheck.assume_fail ()
      | Some area ->
          let a, b = Safe_area.diameter_pair area in
          let mid = Safe_area.midpoint_value area in
          List.for_all
            (fun sub ->
              List.for_all
                (fun p -> Membership.in_hull ~eps:1e-6 sub p)
                [ a; b; mid ])
            (Restrict.subsets ~t:1 pts))

(* agreement of the three representations: a point is in safe_t iff it is in
   every subset hull (checked via LP), in dimensions 2 and 3 *)
let prop_contains_agrees =
  QCheck.Test.make ~name:"contains agrees with subset-hull definition"
    ~count:40
    (QCheck.make
       ~print:(fun (pts, p) -> print_pts pts ^ " @ " ^ Vec.to_string p)
       QCheck.Gen.(
         pair (gen_pts ~d:3 ~m:6)
           (list_repeat 3 (float_range (-10.) 10.) >|= Vec.of_list)))
    (fun (pts, p) ->
      match Safe_area.compute ~t:1 pts with
      | None -> QCheck.assume_fail ()
      | Some area ->
          let by_def eps =
            List.for_all
              (fun sub -> Membership.in_hull ~eps sub p)
              (Restrict.subsets ~t:1 pts)
          in
          (* skip boundary-ambiguous points *)
          let strict_in = by_def 1e-9 and loose_out = not (by_def 1e-5) in
          QCheck.assume (strict_in || loose_out);
          Safe_area.contains ~eps:1e-6 area p = strict_in)

(* Lemma 5.8 shape: two sets sharing a core of n - ts values have
   intersecting safe areas. Construction: n = 8, ts = 2, ta = 1. *)
let prop_lemma_5_8 =
  QCheck.Test.make ~name:"lemma 5.8: honest safe areas intersect" ~count:40
    (QCheck.make ~print:print_pts (gen_pts ~d:2 ~m:8))
    (fun pts ->
      let n = 8 and ts = 2 and ta = 1 in
      let core = List.filteri (fun i _ -> i < n - ts) pts in
      let extra = List.filteri (fun i _ -> i >= n - ts) pts in
      let m1 = core @ [ List.nth extra 0 ] in
      let m2 = core @ [ List.nth extra 1 ] in
      let t_of m = max (List.length m - (n - ts)) ta in
      match
        (Safe_area.compute ~t:(t_of m1) m1, Safe_area.compute ~t:(t_of m2) m2)
      with
      | Some (Safe_area.Planar p1), Some (Safe_area.Planar p2) ->
          Polygon.inter p1 p2 <> None
      | _ -> false)

(* brute force: the family has exactly C(m, t) distinct members *)
let prop_restrict_complete =
  QCheck.Test.make ~name:"restrict family complete and distinct" ~count:100
    QCheck.(pair (int_range 1 8) (int_range 0 4))
    (fun (m, t) ->
      QCheck.assume (t <= m);
      let subs = Restrict.subsets ~t (List.init m Fun.id) in
      List.length subs = Restrict.count ~m ~t
      && List.length (List.sort_uniq compare subs) = List.length subs
      && List.for_all (fun sub -> List.length sub = m - t) subs)

(* brute force: the 1-D fast path equals the naive subset-interval
   intersection *)
let prop_safe_1d_matches_bruteforce =
  QCheck.Test.make ~name:"1-D safe area equals brute force" ~count:150
    QCheck.(pair (list_of_size (Gen.int_range 3 9) (float_range (-50.) 50.)) (int_range 0 3))
    (fun (xs, t) ->
      QCheck.assume (t < List.length xs);
      let vs = List.map (fun x -> Vec.of_list [ x ]) xs in
      let brute =
        Restrict.subsets ~t xs
        |> List.map (fun sub ->
               ( List.fold_left Float.min infinity sub,
                 List.fold_left Float.max neg_infinity sub ))
        |> List.fold_left
             (fun (lo, hi) (l, h) -> (Float.max lo l, Float.min hi h))
             (neg_infinity, infinity)
      in
      match (Safe_area.compute ~t vs, brute) with
      | None, (lo, hi) -> lo > hi
      | Some (Safe_area.Interval { lo; hi }), (blo, bhi) ->
          Float.abs (lo -. blo) <= 1e-12 && Float.abs (hi -. bhi) <= 1e-12
      | Some _, _ -> false)

(* Regression for the quadratic [List.length rest >= k] the recursive
   enumerator used to hide: the iterative kernel must produce exactly
   C(m, t) subsets across a whole m × t grid. *)
let test_subsets_grid () =
  for m = 0 to 12 do
    let l = List.init m Fun.id in
    for t = 0 to m do
      let subs = Restrict.subsets ~t l in
      Alcotest.(check int)
        (Printf.sprintf "|subsets ~t:%d| of %d" t m)
        (Restrict.count ~m ~t) (List.length subs)
    done
  done

(* The list API is a view of the array kernel: same family, same order. *)
let test_subsets_arr_consistent () =
  let l = List.init 7 Fun.id in
  for t = 0 to 7 do
    let via_arr =
      Restrict.subsets_arr ~t (Array.of_list l)
      |> Array.map Array.to_list |> Array.to_list
    in
    Alcotest.(check bool)
      (Printf.sprintf "t=%d" t)
      true
      (via_arr = Restrict.subsets ~t l)
  done;
  (* lexicographic order of the kept index sets, explicitly *)
  Alcotest.(check bool) "lexicographic" true
    (Restrict.subsets ~t:2 [ 0; 1; 2; 3 ]
    = [ [ 0; 1 ]; [ 0; 2 ]; [ 0; 3 ]; [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ])

let vec_opt_eq a b =
  match (a, b) with
  | None, None -> true
  | Some u, Some w -> Vec.compare u w = 0
  | _ -> false

(* The array-native entry point the protocol now uses must be bit-identical
   to the list path, in every dimension regime (order statistics, polygon
   clipping, LP workspace). *)
let prop_new_value_arr_matches =
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun d ->
      int_range (d + 2) 7 >>= fun n ->
      int_range 1 2 >>= fun t ->
      list_repeat n (list_repeat d (float_range (-10.) 10.)) >|= fun pts ->
      (t, List.map Vec.of_list pts))
  in
  QCheck.Test.make ~name:"new_value_arr ≡ new_value" ~count:60
    (QCheck.make ~print:(fun (t, pts) ->
         Printf.sprintf "t=%d %s" t (print_pts pts))
       gen)
    (fun (t, pts) ->
      QCheck.assume (t < List.length pts);
      vec_opt_eq
        (Safe_area.new_value_arr ~t (Array.of_list pts))
        (Safe_area.new_value ~t pts))

(* For implicit (D ≥ 4) areas, the cached-workspace diameter must match the
   pre-workspace one-shot search on the very same hullset. (D = 3 now takes
   the exact [Spatial] kernel; its differential grid against
   [Hullset.Reference] lives in test_hull3d.ml.) *)
let prop_implicit_diameter_matches_reference =
  let gen =
    QCheck.Gen.(
      list_repeat 6 (list_repeat 4 (float_range (-10.) 10.)) >|= fun pts ->
      List.map Vec.of_list pts)
  in
  QCheck.Test.make ~name:"implicit diameter ≡ reference" ~count:20
    (QCheck.make ~print:print_pts gen)
    (fun pts ->
      match Safe_area.compute ~t:1 pts with
      | Some (Safe_area.Implicit hs) -> (
          let a, b = Safe_area.diameter_pair (Safe_area.Implicit hs) in
          match Hullset.Reference.diameter_pair hs with
          | Some (a', b') -> Vec.compare a a' = 0 && Vec.compare b b' = 0
          | None -> false)
      | Some _ -> false
      | None -> QCheck.assume_fail ())

(* --- converged multisets (m bitwise-identical values) --- *)

let bits_equal u w =
  List.equal
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    (Vec.to_list u) (Vec.to_list w)

let opt_bits_equal a b =
  match (a, b) with
  | None, None -> true
  | Some u, Some w -> bits_equal u w
  | _ -> false

let kernel_midpoint ~t vs =
  Option.map Safe_area.midpoint_value (Safe_area.compute_arr ~t vs)

let kernel_centroid ~t vs =
  Option.map Safe_area.centroid_value (Safe_area.compute_arr ~t vs)

(* Both update rules answer a converged multiset with its value, bit for
   bit what the kernels compute. The kernels run wherever they stay small:
   from D = 3 on they reach the LP fallback, whose tableau grows with
   C(m, t), so beyond 120 subsets only the short-circuit's answer is
   checked (it equals the kernel's on every smaller family). *)
let test_converged_matches_kernel () =
  let rng = Rng.create 2412L in
  let coord () =
    let x = 10. ** Rng.float_range rng (-3.) 4. in
    if Rng.bool rng then x else -.x
  in
  for d = 1 to 5 do
    for m = 4 to 13 do
      for t = 0 to m - 1 do
        let p = Vec.of_list (List.init d (fun _ -> coord ())) in
        let vs = Array.make m p in
        let name = Printf.sprintf "D=%d m=%d t=%d %s" d m t (Vec.to_string p) in
        let mid = Safe_area.new_value_arr ~t vs in
        let cen = Safe_area.centroid_value_arr ~t vs in
        if not (opt_bits_equal mid (Some p) && opt_bits_equal cen (Some p)) then
          Alcotest.failf "%s: not answered with the value" name;
        if d <= 2 || Restrict.count ~m ~t <= 120 then begin
          if not (opt_bits_equal mid (kernel_midpoint ~t vs)) then
            Alcotest.failf "%s: midpoint rule differs from the kernel" name;
          if not (opt_bits_equal cen (kernel_centroid ~t vs)) then
            Alcotest.failf "%s: centroid rule differs from the kernel" name
        end
      done
    done
  done

(* -0. and 0. compare equal but differ in bits, so a multiset mixing them
   is not converged and takes the kernel. In D = 1 the kernel's midpoint of
   the trimmed interval is +0., while the first value is -0. *)
let test_converged_signed_zero () =
  for d = 1 to 3 do
    let p = Vec.of_list (List.init d (fun i -> if i = 0 then 0. else 1.5)) in
    let q = Vec.of_list (List.init d (fun i -> if i = 0 then -0. else 1.5)) in
    let vs = Array.init 6 (fun i -> if i = 0 then q else p) in
    List.iter
      (fun t ->
        let name = Printf.sprintf "D=%d t=%d" d t in
        Alcotest.(check bool) (name ^ " midpoint = kernel") true
          (opt_bits_equal
             (Safe_area.new_value_arr ~t vs)
             (kernel_midpoint ~t vs));
        Alcotest.(check bool) (name ^ " centroid = kernel") true
          (opt_bits_equal
             (Safe_area.centroid_value_arr ~t vs)
             (kernel_centroid ~t vs)))
      [ 1; 2 ]
  done;
  let vs = [| v [ -0. ]; v [ 0. ]; v [ 0. ]; v [ 0. ] |] in
  Alcotest.(check bool) "D=1 mix answered +0." true
    (opt_bits_equal (Safe_area.new_value_arr ~t:1 vs) (Some (v [ 0. ])))

(* The canonical sort must order 0. and -0. by sign: [Float.compare]
   calls them equal, so without a tie-break on the bits a multiset mixing
   them reaches the kernels in an order that depends on arrival order,
   and the result's zero signs follow it. *)
let prop_signed_zero_permutation =
  let gen =
    QCheck.Gen.(
      int_range 1 3 >>= fun d ->
      int_range (d + 2) 8 >>= fun m ->
      int_range 0 2 >>= fun t ->
      list_repeat m
        (list_repeat d (oneofl [ 0.; -0.; 0.; -0.; 1.; -1.; 2.5 ]))
      >>= fun pts ->
      (* force the mix into the first coordinate *)
      let pts =
        List.mapi
          (fun i p ->
            match p with
            | _ :: rest when i < 2 -> (if i = 0 then 0. else -0.) :: rest
            | p -> p)
          pts
      in
      let pts = List.map Vec.of_list pts in
      shuffle_l pts >|= fun perm -> (t, pts, perm))
  in
  QCheck.Test.make ~name:"±0 mix: result bits independent of order"
    ~count:300
    (QCheck.make
       ~print:(fun (t, pts, perm) ->
         Printf.sprintf "t=%d %s | %s" t (print_pts pts) (print_pts perm))
       gen)
    (fun (t, pts, perm) ->
      let a = Array.of_list pts and b = Array.of_list perm in
      opt_bits_equal (Safe_area.new_value_arr ~t a) (Safe_area.new_value_arr ~t b)
      && opt_bits_equal
           (Safe_area.centroid_value_arr ~t a)
           (Safe_area.centroid_value_arr ~t b))

(* [Safe_cache] keys compare on the bits. With [Vec.equal_exact] keys a
   multiset of [-0.] copies and one of [0.] copies shared an entry, and
   the second lookup returned the first one's zero signs. *)
let test_cache_signed_zero_keys () =
  let cache = Safe_cache.create () in
  let neg = Array.make 4 (v [ -0.; 1. ]) and pos = Array.make 4 (v [ 0.; 1. ]) in
  ignore (Safe_cache.new_value_arr cache ~t:1 neg);
  Alcotest.(check bool) "+0. copies answered +0." true
    (opt_bits_equal
       (Safe_cache.new_value_arr cache ~t:1 pos)
       (Safe_area.new_value_arr ~t:1 pos));
  Alcotest.(check int) "two entries" 2 (Safe_cache.size cache);
  (* permutations of one multiset still share an entry *)
  let mix = [| v [ 0.; 1. ]; v [ -0.; 1. ]; v [ 1.; 0. ]; v [ -0.; 1. ] |] in
  let rev = Array.of_list (List.rev (Array.to_list mix)) in
  ignore (Safe_cache.new_value_arr cache ~t:1 mix);
  let hits = Safe_cache.hits cache in
  ignore (Safe_cache.new_value_arr cache ~t:1 rev);
  Alcotest.(check int) "permutation hits" (hits + 1) (Safe_cache.hits cache)

let prop_cache_signed_zero =
  let gen =
    QCheck.Gen.(
      int_range 1 3 >>= fun d ->
      int_range (d + 2) 6 >>= fun m ->
      int_range 0 1 >>= fun t ->
      list_size (int_range 1 6)
        (list_repeat m (list_repeat d (oneofl [ 0.; -0.; 0.; -0.; 1. ])))
      >>= fun queries ->
      let queries = List.map (List.map Vec.of_list) queries in
      shuffle_l queries >|= fun order -> (t, queries, order))
  in
  QCheck.Test.make ~name:"±0 mix: cache on = cache off, any order" ~count:300
    (QCheck.make
       ~print:(fun (t, qs, _) ->
         Printf.sprintf "t=%d %s" t (String.concat " | " (List.map print_pts qs)))
       gen)
    (fun (t, queries, order) ->
      let cache = Safe_cache.create () in
      List.for_all
        (fun kernel ->
          List.for_all
            (fun pts ->
              let a = Array.of_list pts in
              let direct =
                match kernel with
                | `Safe_area -> Safe_area.new_value_arr ~t a
                | `Centroid -> Safe_area.centroid_value_arr ~t a
              in
              opt_bits_equal (Safe_cache.new_value_arr ~kernel cache ~t a) direct)
            (queries @ order))
        [ `Safe_area; `Centroid ])

let test_converged_contracts () =
  let p = v [ 1.; 2.; 3. ] in
  let raises name msg f =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  List.iter
    (fun (rule, f) ->
      raises (rule ^ ": empty") "Safe_area.compute: empty multiset" (fun () ->
          f ~t:0 [||]);
      raises (rule ^ ": t = m") "Safe_area.compute: need 0 <= t < |M|"
        (fun () -> f ~t:4 (Array.make 4 p));
      raises (rule ^ ": t < 0") "Safe_area.compute: need 0 <= t < |M|"
        (fun () -> f ~t:(-1) (Array.make 4 p));
      raises (rule ^ ": family too large") "Restrict.subsets: family too large"
        (fun () -> f ~t:20 (Array.make 40 p));
      (* D = 1 never enumerates the family *)
      Alcotest.(check bool) (rule ^ ": D=1 large family") true
        (opt_bits_equal
           (f ~t:20 (Array.make 40 (v [ 2.5 ])))
           (Some (v [ 2.5 ]))))
    [
      ("midpoint", Safe_area.new_value_arr);
      ("centroid", Safe_area.centroid_value_arr);
    ]

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "safearea"
    [
      ( "restrict",
        [
          Alcotest.test_case "count" `Quick test_restrict_count;
          Alcotest.test_case "subsets" `Quick test_restrict_subsets;
          Alcotest.test_case "invalid" `Quick test_restrict_invalid;
          Alcotest.test_case "order preserved" `Quick
            test_restrict_preserves_order;
          Alcotest.test_case "count grid" `Quick test_subsets_grid;
          Alcotest.test_case "array kernel consistent" `Quick
            test_subsets_arr_consistent;
        ] );
      ( "safe-1d",
        [
          Alcotest.test_case "interval" `Quick test_safe_1d;
          Alcotest.test_case "point" `Quick test_safe_1d_point;
          Alcotest.test_case "empty" `Quick test_safe_1d_empty;
          Alcotest.test_case "duplicates" `Quick test_safe_1d_duplicates;
          Alcotest.test_case "new value" `Quick test_safe_1d_new_value;
        ] );
      ( "safe-2d",
        [
          Alcotest.test_case "figure 2: single point" `Quick
            test_figure2_single_point;
          Alcotest.test_case "interior point" `Quick test_interior_point;
          Alcotest.test_case "paper empty example" `Quick
            test_paper_empty_example;
          Alcotest.test_case "deterministic diameter pair" `Quick
            test_safe_2d_diameter_pair_deterministic;
        ] );
      ( "converged",
        [
          Alcotest.test_case "short-circuit = kernel" `Quick
            test_converged_matches_kernel;
          Alcotest.test_case "signed zeros take the kernel" `Quick
            test_converged_signed_zero;
          Alcotest.test_case "contracts kept" `Quick test_converged_contracts;
          Alcotest.test_case "cache keys on zero signs" `Quick
            test_cache_signed_zero_keys;
        ] );
      ( "properties",
        q
          [
            prop_lemma_5_5;
            prop_lemma_5_6;
            prop_lemma_5_7;
            prop_contains_agrees;
            prop_lemma_5_8;
            prop_restrict_complete;
            prop_safe_1d_matches_bruteforce;
            prop_new_value_arr_matches;
            prop_implicit_diameter_matches_reference;
            prop_signed_zero_permutation;
            prop_cache_signed_zero;
          ] );
    ]
