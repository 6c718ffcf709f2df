(* The multi-instance engine: many concurrent ΠAA (or EW) scenario
   instances multiplexed onto ONE discrete-event loop, sharing payload
   intern tables and safe-area memos — the high-throughput path for
   serving thousands of small agreement requests.

   Determinism contract (differential-tested by {!check_grid}): a
   multiplexed run of k admissible scenarios is byte-identical — results,
   engine statistics, full per-instance traces and monitor summaries — to
   the k sequential [Runner.run]s, except for the [caches] field, which
   reports the shared totals.

   Why it holds: the shared engine orders events by (time, global
   sequence number) and instances never exchange messages, so instance
   j's events pop in the same relative order as in its dedicated engine
   (its pushes happen in the same relative order, by induction over
   handler executions, and the queue is stable across instances). Delays
   and delivery times are not taken from the shared engine's policy at
   all: each instance carries its own [Rng] seeded from its scenario and
   its own delay policy, the mux draws them in exactly the per-dst order
   [Engine.broadcast] would, and enqueues through [Engine.send_at]. Tick
   values, flush points and timer times therefore coincide with the
   dedicated run; extra flush firings at ticks where only other
   instances were active hit empty buffers and are no-ops.

   Slot layout: instance [j] owns the contiguous engine-slot block
   [[base_j, base_j + n_j)], so the slot a message lands on already
   identifies its instance. Messages travel untouched — no instance tag,
   no per-delivery rewrite — and deliveries reach the party handler as
   the engine popped them, so the steady-state hot path allocates
   nothing beyond what a dedicated engine would. Timer tags and
   end-of-tick flushers go straight to the party's own engine slot.

   Cache sharing: one {!Safe_cache} per (D, ts, ta) class serves every
   co-resident instance of that class — a hit returns the identical bits
   a miss would recompute, so only the hit/miss counters (and the LP work
   skipped) change; likewise one {!Intern} table per party index is
   shared by the honest ΠAA parties with that index. This is the warm-
   workspace story: a later instance's safe-area lookups land on the
   earlier instances' entries and bypass the LP kernel entirely. *)

type group_stats = {
  instances : int;
  shared_safe_caches : int;  (** distinct (D, ts, ta) cache classes *)
  safe_hits : int;
  safe_misses : int;
  intern_hits : int;
  intern_misses : int;
}

(* -- admission ---------------------------------------------------------- *)

let muxable (s : Scenario.t) =
  s.Scenario.transport = `Sim && s.wire_chaos = None && s.chaos = None
  && (not s.isolate)
  && s.Scenario.budget.Scenario.max_events = None
  && List.for_all
       (fun (_, b) ->
         match b with
         | Behavior.Silent | Behavior.Honest_with_input _ -> true
         | _ -> false)
       s.corruptions

let check_admissible s =
  if not (muxable s) then
    invalid_arg
      (Printf.sprintf
         "Multi_runner: scenario %S is not admissible (needs Sim transport, \
          no chaos/isolate/max_events, and only Silent/Honest_with_input \
          corruptions)"
         s.Scenario.name)

(* -- per-instance state ------------------------------------------------- *)

type inst = {
  s : Scenario.t;
  n : int;
  base : int;  (* first engine slot *)
  rng : Rng.t;  (* replays the dedicated engine's delay stream *)
  policy : Engine.delay_policy;
  handlers : (Message.t Transport.event -> unit) option array;
  mutable sent : int;
  mutable bytes : int;
  mutable delivered : int;
  mutable events : int;
  mutable final_time : int;
  traffic : Traffic.t;
  monitor : Monitor.t option;
  tracer : (Message.t Engine.trace_event -> unit) option;
  observing : bool;  (* monitor or tracer present: build trace events *)
  safe_cache : Safe_cache.t;  (* shared across the (D, ts, ta) class *)
  mutable parties : (int * Runner.attached) list;  (* honest, slot order *)
}

let observe inst ev =
  (match inst.monitor with Some m -> Monitor.on_trace m ev | None -> ());
  match inst.tracer with Some f -> f ev | None -> ()

(* -- the send path ------------------------------------------------------ *)

let mux_broadcast eng inst ~slot msg =
  let now = Engine.now eng in
  let size = Message.size_of msg in
  inst.sent <- inst.sent + inst.n;
  inst.bytes <- inst.bytes + (size * inst.n);
  (* class accounting mirrors the engine's send path: one classification
     per copy sent (the observe hook only reads [msg], so one event
     serves all copies) *)
  let acct =
    Engine.Sent { src = slot; dst = 0; at = now; deliver_at = now; msg }
  in
  for _ = 1 to inst.n do
    Traffic.observe inst.traffic acct
  done;
  for dst = 0 to inst.n - 1 do
    let delay = max 1 (inst.policy ~rng:inst.rng ~now ~src:slot ~dst) in
    if inst.observing then
      observe inst
        (Engine.Sent
           { src = slot; dst; at = now; deliver_at = now + delay; msg });
    Engine.send_at eng ~src:slot ~dst:(inst.base + dst)
      ~deliver_at:(now + delay) msg
  done

(* -- the delivery path -------------------------------------------------- *)

(* The popped event already carries the instance's local [src] and an
   untouched message, so it goes to the party handler exactly as the
   engine popped it — the counting wrapper allocates only when a monitor
   or tracer is watching. *)
let deliver eng inst ~local ev =
  let at = Engine.now eng in
  inst.events <- inst.events + 1;
  if at > inst.final_time then inst.final_time <- at;
  (match ev with
  | Transport.Deliver { src; msg } ->
      inst.delivered <- inst.delivered + 1;
      if inst.observing then
        observe inst (Engine.Delivered { src; dst = local; at; msg })
  | Transport.Timer tag ->
      if inst.observing then
        observe inst (Engine.Timer_fired { party = local; at; tag }));
  (* no handler = crashed/Silent party: counted and traced, then dropped,
     exactly like the engine's own run loop *)
  match inst.handlers.(local) with Some h -> h ev | None -> ()

(* -- group execution ---------------------------------------------------- *)

let run_group ?(monitor = false) ?tracer ?on_engine scenarios =
  match scenarios with
  | [] -> []
  | scenarios ->
      List.iter check_admissible scenarios;
      let n_max, n_engine =
        List.fold_left
          (fun (m, total) (s : Scenario.t) ->
            (max m s.cfg.Config.n, total + s.cfg.Config.n))
          (0, 0) scenarios
      in
      (* The shared engine is pure machinery: its policy and RNG are never
         consulted (every delivery goes through [send_at]), classification
         is off (per-instance Traffic counters ride the mux send path),
         and its stats are ignored in favour of the per-instance ones. *)
      let eng =
        Engine.create ~n:n_engine
          ~policy:(fun ~rng:_ ~now:_ ~src:_ ~dst:_ -> 1)
          ()
      in
      (match on_engine with Some f -> f eng | None -> ());
      (* shared safe-area memo per (D, ts, ta) class; shared intern table
         per party index *)
      let caches : (int * int * int, Safe_cache.t) Hashtbl.t =
        Hashtbl.create 8
      in
      let cache_for (cfg : Config.t) =
        let key = (cfg.Config.d, cfg.Config.ts, cfg.Config.ta) in
        match Hashtbl.find_opt caches key with
        | Some c -> c
        | None ->
            let c = Safe_cache.create () in
            Hashtbl.add caches key c;
            c
      in
      let interns = Array.make n_max None in
      let intern_for party =
        match interns.(party) with
        | Some i -> i
        | None ->
            let i = Intern.create () in
            interns.(party) <- Some i;
            i
      in
      let bases =
        let acc = ref 0 in
        List.map
          (fun (s : Scenario.t) ->
            let b = !acc in
            acc := !acc + s.cfg.Config.n;
            b)
          scenarios
      in
      let insts =
        Array.of_list
          (List.mapi
             (fun j ((s : Scenario.t), base) ->
               let cfg = s.cfg in
               let graded = Scenario.graded_honest s in
               let honest_inputs = Scenario.honest_inputs s in
               {
                 s;
                 n = cfg.Config.n;
                 base;
                 rng = Rng.create s.seed;
                 policy = s.policy;
                 handlers = Array.make cfg.Config.n None;
                 sent = 0;
                 bytes = 0;
                 delivered = 0;
                 events = 0;
                 final_time = 0;
                 traffic = Traffic.create ();
                 monitor =
                   (if monitor then
                      Some (Monitor.create ~cfg ~honest:graded ~honest_inputs)
                    else None);
                 tracer = Option.map (fun f -> f j) tracer;
                 observing = monitor || tracer <> None;
                 safe_cache = cache_for cfg;
                 parties = [];
               })
             (List.combine scenarios bases))
      in
      (* parties install their own handlers into their instance's table,
         never into the engine: the engine slots carry the mux's counting
         pass-through *)
      Array.iter
        (fun inst ->
          for i = 0 to inst.n - 1 do
            Engine.set_party eng (inst.base + i) (deliver eng inst ~local:i)
          done)
        insts;
      let endpoint inst slot : Message.t Transport.endpoint =
        let gslot = inst.base + slot in
        {
          Transport.me = slot;
          n = inst.n;
          now = (fun () -> Engine.now eng);
          send_all = (fun msg -> mux_broadcast eng inst ~slot msg);
          set_timer =
            (fun ~at ~tag -> Engine.set_timer eng ~party:gslot ~at ~tag);
          register_flush = (fun hook -> Engine.set_flusher eng gslot hook);
          set_handler = (fun h -> inst.handlers.(slot) <- Some h);
        }
      in
      (* Build and start each instance exactly in [Runner.run]'s order —
         attach honest parties, install corruptions (an honest-with-input
         adversary starts, and sends, immediately), then start the honest
         parties — one instance completing its setup before the next, so
         every instance's RNG draws and event pushes keep their
         sequential relative order. *)
      Array.iter
        (fun inst ->
          let s = inst.s in
          let cfg = s.Scenario.cfg in
          let inputs = Array.of_list s.inputs in
          let graded = Scenario.graded_honest s in
          let honest_inputs = Scenario.honest_inputs s in
          let hooks i =
            match inst.monitor with
            | Some m when List.mem i graded ->
                Some
                  ( (fun ~iter v ->
                      Monitor.on_iteration m ~party:i ~now:(Engine.now eng)
                        ~iter v),
                    fun ~iter v ->
                      Monitor.on_output m ~party:i ~now:(Engine.now eng) ~iter
                        v )
            | _ -> None
          in
          let ew_iters =
            lazy
              (Baseline_runner.rounds_for ~eps:cfg.Config.eps
                 ~inputs:honest_inputs)
          in
          inst.parties <-
            List.map
              (fun i ->
                let intern =
                  match s.protocol with
                  | `Maaa -> Some (intern_for i)
                  | `Ew -> None
                in
                ( i,
                  Runner.attach_party ~scenario:s ?hooks:(hooks i) ?intern
                    ~safe_cache:inst.safe_cache ~ew_iters (endpoint inst i) ))
              (Scenario.honest s);
          List.iter
            (fun (i, b) ->
              match b with
              | Behavior.Silent -> ()
              | Behavior.Honest_with_input v ->
                  (* mirror [Behavior.install]: a default-configured party
                     with its own fresh caches, started on the poisoned
                     value *)
                  let p = Party.attach_endpoint ~cfg (endpoint inst i) in
                  Party.start p v
              | _ -> assert false (* excluded by admission *))
            s.corruptions;
          List.iter (fun (i, p) -> p.Runner.a_start inputs.(i)) inst.parties)
        insts;
      (* One cooperative deadline for the whole group: the tightest
         instance budget. A fired deadline cannot be attributed to one
         instance, so every result reports [Timed_out] — the same
         quarantine semantics a sequential wall timeout has. *)
      let should_stop =
        let deadlines =
          List.filter_map
            (fun (s : Scenario.t) -> s.Scenario.budget.Scenario.wall_seconds)
            scenarios
        in
        match deadlines with
        | [] -> None
        | ds ->
            let w = List.fold_left Float.min Float.max_float ds in
            let deadline = Unix.gettimeofday () +. w in
            Some (fun () -> Unix.gettimeofday () > deadline)
      in
      let max_events =
        (* the engine default is per-run; scale it by the group size so a
           group never trips a budget none of its instances would have *)
        let k = Array.length insts in
        if k > max_int / 10_000_000 then max_int else k * 10_000_000
      in
      Engine.run ~max_events ~on_budget:`Stop ?should_stop eng;
      let termination =
        match Engine.stop_reason eng with
        | `Event_budget -> Runner.Budget_exhausted
        | `Cancelled -> Runner.Timed_out
        | `Quiescent | `Past_until -> Runner.Completed
      in
      Array.to_list insts
      |> List.map (fun inst ->
             let stats =
               {
                 Engine.messages_sent = inst.sent;
                 bytes_sent = inst.bytes;
                 messages_delivered = inst.delivered;
                 final_time = inst.final_time;
                 events_processed = inst.events;
                 party_failures = 0;
               }
             in
             Runner.grade ~scenario:inst.s ~termination ~stats
               ~traffic:(Traffic.to_rows inst.traffic)
               ~monitor:(Option.map Monitor.summary inst.monitor)
               ~safe_cache:inst.safe_cache ~transport:`Sim ~wire:None
               inst.parties)

(* -- sharded execution -------------------------------------------------- *)

let chunk size xs =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = size then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let run_many ?(monitor = false) ?(group_size = 64) ?domains ?pool scenarios =
  if group_size <= 0 then invalid_arg "Multi_runner.run_many: group_size";
  let indexed = List.mapi (fun i s -> (i, s)) scenarios in
  let mux, direct = List.partition (fun (_, s) -> muxable s) indexed in
  let jobs =
    List.map (fun g -> `Group g) (chunk group_size mux)
    @ List.map (fun d -> `Direct d) direct
  in
  let run_job = function
    | `Group g ->
        List.map2
          (fun (i, _) r -> (i, r))
          g
          (run_group ~monitor (List.map snd g))
    | `Direct (i, s) -> [ (i, Runner.run ~monitor s) ]
  in
  let seq_job = function
    | `Group g -> List.map (fun (i, s) -> (i, Runner.run ~monitor s)) g
    | `Direct (i, s) -> [ (i, Runner.run ~monitor s) ]
  in
  let outs =
    match (pool, jobs) with
    | _, ([] | [ _ ]) -> List.map run_job jobs
    | Some p, _ -> Pool.map p run_job jobs
    | None, _ -> (
        match domains with
        | None | Some 1 -> List.map run_job jobs
        | Some d ->
            (* crash-tolerant sharding: a worker death re-runs only that
               group's scenarios, sequentially and un-multiplexed *)
            List.map2
              (fun job outcome ->
                match outcome with
                | Pool.Supervised.Done r -> r
                | Pool.Supervised.Crashed _ -> seq_job job)
              jobs
              (Pool.Supervised.map ~domains:d run_job jobs))
  in
  List.concat outs
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let group_stats results =
  (* shared-cache totals are replicated into every result of a class, so
     "sum of distinct totals" needs deduplication; results coming out of
     one group share physical cache counters, making (hits, misses, size)
     triples a serviceable dedup key for reporting purposes *)
  let module S = Set.Make (struct
    type t = int * int * int

    let compare = compare
  end) in
  let classes, sh, sm =
    List.fold_left
      (fun (seen, h, m) (r : Runner.result) ->
        let key =
          ( r.Runner.caches.Runner.safe_hits,
            r.caches.safe_misses,
            r.caches.safe_size )
        in
        if S.mem key seen then (seen, h, m)
        else (S.add key seen, h + r.caches.safe_hits, m + r.caches.safe_misses))
      (S.empty, 0, 0) results
  in
  {
    instances = List.length results;
    shared_safe_caches = S.cardinal classes;
    safe_hits = sh;
    safe_misses = sm;
    intern_hits =
      List.fold_left (fun a (r : Runner.result) -> a + r.caches.intern_hits) 0
        results;
    intern_misses =
      List.fold_left
        (fun a (r : Runner.result) -> a + r.caches.intern_misses)
        0 results;
  }

(* -- the differential grid ---------------------------------------------- *)

(* Byte-identity of a multiplexed run against its sequential references:
   {interned, batched} message layer × k ∈ {1,4,16} × D ∈ {1,2} ×
   {sync, async} × {silent, poison}, plus an EW group. Returns
   human-readable mismatch descriptions; [] = the determinism contract
   holds. Used by both [test/test_multi.ml] (asserts []) and
   [bin/multi_check_main.ml] (the [make multi-check] gate). *)

let grid_scenario ~name ~cfg ~policy ~sync ~layer ~corrupt ~seed i =
  let n = cfg.Config.n in
  let d = cfg.Config.d in
  let base = 0.13 *. float_of_int (i + 1) in
  let inputs =
    List.init n (fun p ->
        Vec.of_list
          (List.init d (fun c ->
               base
               +. (0.31 *. float_of_int p)
               +. (0.07 *. float_of_int c))))
  in
  let corruptions =
    match corrupt with
    | `None -> []
    | `Silent -> [ (n - 1, Behavior.Silent) ]
    | `Poison ->
        [ (n - 1, Behavior.Honest_with_input (Vec.of_list (List.init d (fun _ -> 9.0)))) ]
  in
  Scenario.make
    ~name:(Printf.sprintf "%s#%d" name i)
    ~seed:(Int64.of_int (seed + (17 * i)))
    ~policy ~sync_network:sync ~corruptions ~message_layer:layer
    ~cfg ~inputs ()

let check_group ~what scenarios =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let capture () =
    let traces = Array.make (List.length scenarios) [] in
    let tracer j ev = traces.(j) <- ev :: traces.(j) in
    (traces, tracer)
  in
  let seq_traces, seq_tracer = capture () in
  let seq =
    List.mapi
      (fun j s -> Runner.run ~monitor:true ~tracer:(seq_tracer j) s)
      scenarios
  in
  let mux_traces, mux_tracer = capture () in
  let mux = run_group ~monitor:true ~tracer:(fun j -> mux_tracer j) scenarios in
  List.iteri
    (fun j ((a : Runner.result), b) ->
      (* the caches field legitimately differs (shared totals) *)
      let b_masked = { b with Runner.caches = a.Runner.caches } in
      if a <> b_masked then
        fail "%s[%d] %s: result differs (sequential vs multiplexed)" what j
          a.Runner.scenario_name;
      if a.Runner.monitor <> b.Runner.monitor then
        fail "%s[%d] %s: monitor summary differs" what j a.Runner.scenario_name;
      let ta = List.rev seq_traces.(j) and tb = List.rev mux_traces.(j) in
      if List.length ta <> List.length tb then
        fail "%s[%d] %s: trace length %d (sequential) vs %d (multiplexed)"
          what j a.Runner.scenario_name (List.length ta) (List.length tb)
      else
        let rec first_diff k ta tb =
          match (ta, tb) with
          | [], [] -> ()
          | ea :: ta', eb :: tb' ->
              if ea <> eb then
                fail "%s[%d] %s: trace diverges at event %d" what j
                  a.Runner.scenario_name k
              else first_diff (k + 1) ta' tb'
          | _ -> assert false
        in
        first_diff 0 ta tb)
    (List.combine seq mux);
  !failures

let check_grid () =
  let cfg1 = Config.make_exn ~n:4 ~ts:1 ~ta:1 ~d:1 ~eps:0.05 ~delta:4 in
  let cfg2 = Config.make_exn ~n:5 ~ts:1 ~ta:1 ~d:2 ~eps:0.05 ~delta:4 in
  let sync = Network.lockstep ~delta:4 in
  let asyn = Network.async_uniform ~max_delay:9 in
  let failures = ref [] in
  let add fs = failures := !failures @ fs in
  List.iter
    (fun (prefix, layer) ->
      List.iter
        (fun k ->
          List.iter
            (fun (cname, cfg) ->
              List.iter
                (fun (pname, policy, is_sync) ->
                  List.iter
                    (fun (bname, corrupt) ->
                      let name =
                        Printf.sprintf "%s-k%d-%s-%s-%s" prefix k cname pname
                          bname
                      in
                      let scenarios =
                        List.init k
                          (grid_scenario ~name ~cfg ~policy ~sync:is_sync
                             ~layer ~corrupt ~seed:(41 * k))
                      in
                      add (check_group ~what:name scenarios))
                    [ ("silent", `Silent); ("poison", `Poison) ])
                [ ("sync", sync, true); ("async", asyn, false) ])
            [ ("d1", cfg1); ("d2", cfg2) ])
        [ 1; 4; 16 ])
    (* the batched arms are the configuration the B14 bench measures *)
    [ ("grid", `Interned); ("grid-batched", `Batched) ];
  (* EW instances multiplex through the same machinery *)
  let ew =
    List.init 4 (fun i ->
        let s =
          grid_scenario ~name:"grid-ew" ~cfg:cfg1 ~policy:asyn ~sync:false
            ~layer:`Interned ~corrupt:`Silent ~seed:97 i
        in
        { s with Scenario.protocol = `Ew })
  in
  add (check_group ~what:"grid-ew" ew);
  !failures
