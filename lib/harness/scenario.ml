type budget = { max_events : int option; wall_seconds : float option }

let no_budget = { max_events = None; wall_seconds = None }

type t = {
  name : string;
  cfg : Config.t;
  seed : int64;
  policy : Engine.delay_policy;
  sync_network : bool;
  inputs : Vec.t list;
  corruptions : (int * Behavior.t) list;
  chaos : Fault_plan.t option;
  mutant : Party.mutant option;
  mode : Party.mode;
  isolate : bool;
  message_layer : [ `Interned | `Batched ];
  update_kernel : Safe_cache.kernel;
  protocol : [ `Maaa | `Ew ];
  transport : [ `Sim | `Net ];
  wire_chaos : Wire_chaos.plan option;
  budget : budget;
}

let make ?(name = "scenario") ?(seed = 1L) ?policy ?(sync_network = true)
    ?(corruptions = []) ?chaos ?mutant ?(mode = Party.Estimate)
    ?(isolate = false) ?(message_layer = `Interned)
    ?(update_kernel = `Safe_area) ?(protocol = `Maaa) ?(transport = `Sim)
    ?wire_chaos ?(budget = no_budget) ~cfg ~inputs () =
  if List.length inputs <> cfg.Config.n then
    invalid_arg "Scenario.make: need one input per party";
  List.iter
    (fun v ->
      if Vec.dim v <> cfg.Config.d then
        invalid_arg "Scenario.make: input dimension mismatch")
    inputs;
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= cfg.Config.n then
        invalid_arg "Scenario.make: corrupted party out of range")
    corruptions;
  let ids = List.map fst corruptions in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Scenario.make: duplicate corruption";
  (match chaos with
  | None -> ()
  | Some plan -> (
      match Fault_plan.validate ~cfg ~sync:sync_network ~existing:ids plan with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Scenario.make: bad fault plan: " ^ msg)));
  (match (wire_chaos, transport) with
  | Some _, `Sim ->
      invalid_arg "Scenario.make: wire_chaos requires the `Net transport"
  | _ -> ());
  if transport = `Net && cfg.Config.n > 255 then
    invalid_arg "Scenario.make: `Net transport frames party ids in one byte";
  (match budget.max_events with
  | Some e when e <= 0 -> invalid_arg "Scenario.make: budget.max_events <= 0"
  | _ -> ());
  (match budget.wall_seconds with
  | Some w when not (w > 0.) ->
      invalid_arg "Scenario.make: budget.wall_seconds <= 0"
  | _ -> ());
  let policy =
    match policy with
    | Some p -> p
    | None -> Network.lockstep ~delta:cfg.Config.delta
  in
  {
    name;
    cfg;
    seed;
    policy;
    sync_network;
    inputs;
    corruptions;
    chaos;
    mutant;
    mode;
    isolate;
    message_layer;
    update_kernel;
    protocol;
    transport;
    wire_chaos;
    budget;
  }

let replicate ~seeds t =
  List.map
    (fun seed ->
      { t with seed; name = Printf.sprintf "%s@%Ld" t.name seed })
    seeds

let honest t =
  List.filter
    (fun i -> not (List.mem_assoc i t.corruptions))
    (List.init t.cfg.Config.n Fun.id)

let chaos_corrupted t =
  match t.chaos with None -> [] | Some plan -> Fault_plan.corrupted plan

let graded_honest t =
  let adaptive = chaos_corrupted t in
  List.filter (fun i -> not (List.mem i adaptive)) (honest t)

let corrupt_count t =
  List.length t.corruptions + List.length (chaos_corrupted t)

let honest_inputs t =
  let inputs = Array.of_list t.inputs in
  List.map (fun i -> inputs.(i)) (graded_honest t)
