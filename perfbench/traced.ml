(* The traced run: assembles a simulated ΠAA run from the same public
   pieces {!Runner.run} uses — [Engine.create], [Runner.attach_party] on a
   wrapping [Transport.endpoint], [Behavior.install], [Engine.run] and
   [Runner.grade] — so that handler, send and flush calls can be timed
   from outside the library. The wrappers only read the clock: the graded
   result must equal [Runner.run]'s for the same scenario, which the
   caller checks.

   Time is split into self times that add up to the run's wall time:
   - [dispatch]: [Engine.run] minus the handler and flush calls it made;
   - [send]: inside an honest party's [send_all] (engine enqueue, delay
     policy, traffic accounting);
   - [party]: honest handler and start-up calls, minus their sends and
     minus [safearea];
   - [safearea]: honest handler calls during which the run's [Safe_cache]
     missed, i.e. ran the geometry kernel, minus their sends;
   - [flush]: end-of-tick flush hooks (the batched message layer), minus
     their sends;
   - [adversary]: the Byzantine parties' handlers, wrapped through
     [Engine.wrap_party]; they send through the engine directly, so their
     sends count here too;
   - [harness]: engine creation, attaching, installing and grading. *)

type acc = {
  mutable runs : int;
  mutable total_s : float;
  mutable engine_s : float;
  mutable harness_s : float;
  mutable handler_calls : int;
  mutable handler_s : float;
  mutable handler_send_s : float;
  mutable start_s : float;
  mutable start_send_s : float;
  mutable miss_s : float;
  mutable miss_send_s : float;
  mutable flush_calls : int;
  mutable flush_s : float;
  mutable flush_send_s : float;
  mutable adversary_s : float;
  mutable send_s : float;
}

let create () =
  {
    runs = 0;
    total_s = 0.;
    engine_s = 0.;
    harness_s = 0.;
    handler_calls = 0;
    handler_s = 0.;
    handler_send_s = 0.;
    start_s = 0.;
    start_send_s = 0.;
    miss_s = 0.;
    miss_send_s = 0.;
    flush_calls = 0;
    flush_s = 0.;
    flush_send_s = 0.;
    adversary_s = 0.;
    send_s = 0.;
  }

let now = Unix.gettimeofday

(* Self times in seconds, by layer, in a fixed order. *)
let split a =
  [
    ("dispatch", a.engine_s -. a.handler_s -. a.flush_s -. a.adversary_s);
    ("send", a.send_s);
    ( "party",
      a.handler_s -. a.handler_send_s -. (a.miss_s -. a.miss_send_s)
      +. (a.start_s -. a.start_send_s) );
    ("safearea", a.miss_s -. a.miss_send_s);
    ("flush", a.flush_s -. a.flush_send_s);
    ("adversary", a.adversary_s);
    ("harness", a.harness_s);
  ]

(* A call's sends are the growth of the send total while it runs. *)
let wrap a cache (ep : Message.t Transport.endpoint) =
  let timed_call f =
    let before = a.send_s in
    let t0 = now () in
    f ();
    (now () -. t0, a.send_s -. before)
  in
  {
    ep with
    Transport.send_all =
      (fun m ->
        let t0 = now () in
        ep.Transport.send_all m;
        a.send_s <- a.send_s +. (now () -. t0));
    set_handler =
      (fun h ->
        ep.Transport.set_handler (fun ev ->
            let m0 = Safe_cache.misses cache in
            let dt, sent = timed_call (fun () -> h ev) in
            a.handler_calls <- a.handler_calls + 1;
            a.handler_s <- a.handler_s +. dt;
            a.handler_send_s <- a.handler_send_s +. sent;
            if Safe_cache.misses cache > m0 then begin
              a.miss_s <- a.miss_s +. dt;
              a.miss_send_s <- a.miss_send_s +. sent
            end));
    register_flush =
      (fun f ->
        ep.Transport.register_flush (fun ~final ->
            let dt, sent = timed_call (fun () -> f ~final) in
            a.flush_calls <- a.flush_calls + 1;
            a.flush_s <- a.flush_s +. dt;
            a.flush_send_s <- a.flush_send_s +. sent));
  }

let layer_spans ~id ~start ~stop before a =
  let delta = List.map2 (fun (k, v) (_, v0) -> (k, v -. v0)) (split a) before in
  Span_log.add ~cat:"harness" ~id ~parent:"" "run" ~start ~stop;
  let cursor = ref start in
  List.iter
    (fun (layer, s) ->
      let s = Float.max s 0. in
      Span_log.add ~cat:"layer" ~id ~parent:"run"
        ~args:[ ("aggregate", 1.) ]
        layer ~start:!cursor ~stop:(!cursor +. s);
      cursor := !cursor +. s)
    delta

let run a ~id (s : Scenario.t) =
  if s.Scenario.chaos <> None || s.transport <> `Sim || s.isolate then
    invalid_arg "Traced.run: only plain simulated scenarios";
  let before = split a in
  let t_begin = now () in
  let cfg = s.cfg in
  let engine =
    Engine.create ~seed:s.seed ~size_of:Message.size_of
      ~classes:Traffic.num_klasses ~classify:Traffic.classify_into
      ~n:cfg.Config.n ~policy:s.policy ()
  in
  let safe_cache = Safe_cache.create () in
  let inputs = Array.of_list s.inputs in
  let ew_iters =
    lazy
      (Baseline_runner.rounds_for ~eps:cfg.Config.eps
         ~inputs:(Scenario.honest_inputs s))
  in
  let parties =
    List.map
      (fun i ->
        ( i,
          Runner.attach_party ~scenario:s ~safe_cache ~ew_iters
            (wrap a safe_cache (Engine.endpoint engine ~me:i)) ))
      (Scenario.honest s)
  in
  List.iter
    (fun (i, b) ->
      Behavior.install engine ~cfg ~me:i ~input:inputs.(i) b;
      Engine.wrap_party engine i (fun h ev ->
          let t0 = now () in
          h ev;
          a.adversary_s <- a.adversary_s +. (now () -. t0)))
    s.corruptions;
  let t_start = now () in
  let send0 = a.send_s in
  List.iter (fun (i, p) -> p.Runner.a_start inputs.(i)) parties;
  let t_run = now () in
  a.start_s <- a.start_s +. (t_run -. t_start);
  a.start_send_s <- a.start_send_s +. (a.send_s -. send0);
  Engine.run ~on_budget:`Stop engine;
  let t_graded = now () in
  a.engine_s <- a.engine_s +. (t_graded -. t_run);
  let termination =
    match Engine.stop_reason engine with
    | `Event_budget -> Runner.Budget_exhausted
    | `Cancelled -> Runner.Timed_out
    | `Quiescent | `Past_until -> Runner.Completed
  in
  let result =
    Runner.grade ~scenario:s ~termination ~stats:(Engine.stats engine)
      ~traffic:(Traffic.to_rows (Traffic.of_engine engine))
      ~monitor:None ~safe_cache ~transport:s.transport ~wire:None parties
  in
  let t_end = now () in
  a.harness_s <- a.harness_s +. (t_start -. t_begin) +. (t_end -. t_graded);
  a.total_s <- a.total_s +. (t_end -. t_begin);
  a.runs <- a.runs + 1;
  layer_spans ~id ~start:t_begin ~stop:t_end before a;
  result
