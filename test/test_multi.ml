(* The multi-instance engine: the differential grid (multiplexed runs
   byte-identical to their sequential references) plus targeted
   cross-instance isolation checks for the shared caches. *)

let cfg1 () = Config.make_exn ~n:4 ~ts:1 ~ta:1 ~d:1 ~eps:0.05 ~delta:4

(* --- the grid --- *)

let test_grid () =
  match Multi_runner.check_grid () with
  | [] -> ()
  | failures ->
      Alcotest.failf "differential grid: %d mismatches:\n%s"
        (List.length failures)
        (String.concat "\n" failures)

(* --- admission --- *)

let test_admission () =
  let cfg = cfg1 () in
  let inputs = List.init 4 (fun i -> Vec.of_list [ float_of_int i ]) in
  let ok = Scenario.make ~cfg ~inputs () in
  Alcotest.(check bool) "plain sim scenario muxable" true
    (Multi_runner.muxable ok);
  Alcotest.(check bool) "net transport rejected" false
    (Multi_runner.muxable { ok with Scenario.transport = `Net });
  Alcotest.(check bool) "isolate rejected" false
    (Multi_runner.muxable { ok with Scenario.isolate = true });
  Alcotest.(check bool) "event budget rejected" false
    (Multi_runner.muxable
       {
         ok with
         Scenario.budget =
           { Scenario.max_events = Some 1000; wall_seconds = None };
       });
  Alcotest.(check bool) "equivocator rejected" false
    (Multi_runner.muxable
       {
         ok with
         Scenario.corruptions =
           [ (3, Behavior.Equivocate (Vec.of_list [ 0. ], Vec.of_list [ 1. ])) ];
       });
  Alcotest.(check bool) "silent admitted" true
    (Multi_runner.muxable
       { ok with Scenario.corruptions = [ (3, Behavior.Silent) ] });
  Alcotest.check_raises "run_group refuses inadmissible"
    (Invalid_argument
       "Multi_runner: scenario \"scenario\" is not admissible (needs Sim \
        transport, no chaos/isolate/max_events, and only \
        Silent/Honest_with_input corruptions)")
    (fun () ->
      ignore
        (Multi_runner.run_group [ { ok with Scenario.transport = `Net } ]))

(* --- shared-cache isolation --- *)

(* Two co-resident instances with deliberately different inputs (hence
   different payloads and different safe-area multisets) must produce
   exactly the outputs of their dedicated runs: shared Intern tables may
   not leak ids across instances, and the shared Safe_cache may not leak
   values across distinct multisets. *)
let test_cache_isolation () =
  let cfg = cfg1 () in
  let mk i =
    Scenario.make
      ~name:(Printf.sprintf "iso#%d" i)
      ~seed:(Int64.of_int (100 + i))
      ~cfg
      ~inputs:
        (List.init 4 (fun p ->
             Vec.of_list [ (float_of_int (i + 1) *. 10.) +. float_of_int p ]))
      ()
  in
  let scens = [ mk 0; mk 1; mk 2 ] in
  let seq = List.map (fun s -> Runner.run s) scens in
  let mux = Multi_runner.run_group scens in
  List.iter2
    (fun (a : Runner.result) (b : Runner.result) ->
      Alcotest.(check bool)
        (a.Runner.scenario_name ^ " outputs identical")
        true
        (a.Runner.outputs = b.Runner.outputs);
      Alcotest.(check bool)
        (a.Runner.scenario_name ^ " histories identical")
        true
        (a.Runner.histories = b.Runner.histories))
    seq mux;
  (* all three instances share one (D, ts, ta) cache class: the shared
     totals must cover at least each instance's own misses, and hits must
     appear once instances replay each other's multisets within an
     instance (every instance still hits on its own parties' repeats) *)
  let shared = (List.hd mux).Runner.caches in
  let own =
    List.fold_left
      (fun acc (r : Runner.result) ->
        acc + r.Runner.caches.Runner.safe_misses)
      0 seq
  in
  Alcotest.(check bool) "shared cache deduplicates kernel work" true
    (shared.Runner.safe_misses <= own);
  Alcotest.(check bool) "shared totals replicated per result" true
    (List.for_all
       (fun (r : Runner.result) -> r.Runner.caches = shared)
       mux)

(* NaN payload canonicalisation must survive table sharing: a poisoned
   instance emitting NaN coordinates may not perturb a clean co-resident
   instance. *)
let test_nan_partition () =
  let cfg = cfg1 () in
  let clean =
    Scenario.make ~name:"nan-clean" ~seed:7L ~cfg
      ~inputs:(List.init 4 (fun p -> Vec.of_list [ float_of_int p ]))
      ()
  in
  let poisoned =
    Scenario.make ~name:"nan-poison" ~seed:8L ~cfg
      ~inputs:(List.init 4 (fun p -> Vec.of_list [ float_of_int p ]))
      ~corruptions:[ (3, Behavior.Honest_with_input (Vec.of_list [ Float.nan ])) ]
      ()
  in
  let seq = List.map (fun s -> Runner.run s) [ clean; poisoned ] in
  let mux = Multi_runner.run_group [ clean; poisoned ] in
  List.iter2
    (fun (a : Runner.result) (b : Runner.result) ->
      Alcotest.(check bool)
        (a.Runner.scenario_name ^ " outputs identical")
        true
        (a.Runner.outputs = b.Runner.outputs))
    seq mux

(* --- run_many --- *)

let test_run_many_mixed () =
  let cfg = cfg1 () in
  let mk ?(net = false) i =
    Scenario.make
      ~name:(Printf.sprintf "many#%d" i)
      ~seed:(Int64.of_int (50 + i))
      ~transport:(if net then `Net else `Sim)
      ~cfg
      ~inputs:(List.init 4 (fun p -> Vec.of_list [ float_of_int (p + i) ]))
      ()
  in
  (* small group size forces several groups; one net scenario exercises
     the non-muxable fallback path *)
  let scens = [ mk 0; mk 1; mk ~net:true 2; mk 3; mk 4 ] in
  let seq = List.map (fun s -> Runner.run s) scens in
  let many = Multi_runner.run_many ~group_size:2 scens in
  Alcotest.(check int) "result count" (List.length seq) (List.length many);
  List.iter2
    (fun (a : Runner.result) (b : Runner.result) ->
      Alcotest.(check string) "order preserved" a.Runner.scenario_name
        b.Runner.scenario_name;
      Alcotest.(check bool)
        (a.Runner.scenario_name ^ " outputs identical")
        true
        (a.Runner.outputs = b.Runner.outputs))
    seq many

let test_run_many_domains () =
  let cfg = cfg1 () in
  let scens =
    List.init 6 (fun i ->
        Scenario.make
          ~name:(Printf.sprintf "dom#%d" i)
          ~seed:(Int64.of_int (70 + i))
          ~cfg
          ~inputs:
            (List.init 4 (fun p -> Vec.of_list [ float_of_int (p * (i + 1)) ]))
          ())
  in
  let one = Multi_runner.run_many ~group_size:2 scens in
  let two = Multi_runner.run_many ~group_size:2 ~domains:2 scens in
  List.iter2
    (fun (a : Runner.result) (b : Runner.result) ->
      Alcotest.(check bool)
        (a.Runner.scenario_name ^ " sharded identical")
        true
        (a.Runner.outputs = b.Runner.outputs
        && a.Runner.stats = b.Runner.stats))
    one two

let () =
  Alcotest.run "multi"
    [
      ( "multi-instance engine",
        [
          Alcotest.test_case "differential grid" `Slow test_grid;
          Alcotest.test_case "admission" `Quick test_admission;
          Alcotest.test_case "cache isolation" `Quick test_cache_isolation;
          Alcotest.test_case "NaN partition isolation" `Quick test_nan_partition;
          Alcotest.test_case "run_many mixed + order" `Quick test_run_many_mixed;
          Alcotest.test_case "run_many sharded" `Quick test_run_many_domains;
        ] );
    ]
