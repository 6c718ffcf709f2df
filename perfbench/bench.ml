(* The repository's benchmark: one ΠAA workload per invocation.

     bench.exe --workload sync-d3|async-d2|serve-mix --seed N --seconds S
               --trace 0|1 [--server PATH]
     bench.exe --self-test [--server PATH]

   With --trace 0 it measures the end-to-end metrics with no tracing; with
   --trace 1 it makes the separate traced run at the same seed and reports
   the per-layer metrics, writing its spans to
   perfbench/_out/trace-<workload>-<seed>.json. Every output is checked;
   the last stdout line is one JSON object
   {"correct", "attempted", "failed", "metrics"}, and the exit code is 1
   when any output was wrong. perfbench/layers.json records why each
   workload exists and which end-to-end metric each layer should move. *)

let now = Unix.gettimeofday
let median l = Stats.percentile l 50.
let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
let fi = float_of_int

(* -- metric names: the contract with BENCHMARK.json --------------------- *)

let e2e_names = [ "setup_s"; "lat_ms_p90"; "peak_heap_mb" ]

let slug s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match Char.lowercase_ascii c with
      | ('a' .. 'z' | '0' .. '9') as c -> Buffer.add_char b c
      | _ ->
          if Buffer.length b > 0 && Buffer.nth b (Buffer.length b - 1) <> '_'
          then Buffer.add_char b '_')
    s;
  let s = Buffer.contents b in
  if String.ends_with ~suffix:"_" s then String.sub s 0 (String.length s - 1)
  else s

let traffic_name k = "traffic." ^ slug (Traffic.klass_name k) ^ ".msgs"

let layer_names =
  [
    "sim.events"; "sim.msgs_sent"; "sim.bytes_sent"; "sim.dispatch_ms";
    "sim.send_ms"; "sim.ns_per_event"; "party.handler_calls"; "party.self_ms";
    "maaa.rounds"; "broadcast.pkts_per_vote";
  ]
  @ List.map traffic_name Traffic.all_klasses
  @ [
      "safearea.lookups"; "safearea.misses"; "safearea.hit_ratio";
      "safearea.miss_call_ms"; "intern.hits"; "intern.misses";
      "intern.hit_ratio"; "mux.instances_per_group"; "mux.us_per_instance";
      "mux.seq_us_per_instance"; "mux.speedup_vs_seq"; "mux.safe_hits";
      "mux.intern_hits"; "serve.parse_us_per_req"; "serve.handle_ms_per_conn";
      "serve.socket_ms_per_conn"; "loadgen.late_ms_p90"; "net.frames_sent";
      "net.retransmits"; "net.reconnects"; "net.decode_errors";
      "net.codec_us_per_msg"; "net.overhead_ms_per_run"; "gc.minor_mw_per_run";
      "gc.major_mw_per_run"; "trace.overhead_frac"; "host.calib_ms";
    ]

(* -- output and failure accounting -------------------------------------- *)

let printed : (string * float * string) list ref = ref []
let attempted = ref 0
let failed = ref 0

let metric name value unit_ =
  printed := (name, value, unit_) :: !printed;
  Printf.printf "metric %-28s %14.6g %s\n" name value unit_

let note fmt = Printf.printf ("# " ^^ fmt ^^ "\n")

(* [n] outputs were checked, [bad] of them wrong. *)
let checked ~what n bad =
  attempted := !attempted + n;
  failed := !failed + bad;
  if bad > 0 then note "FAILED: %d of %d %s outputs were wrong" bad n what

let json_result names =
  let value name =
    match List.find_opt (fun (n, _, _) -> n = name) !printed with
    | Some (_, v, u) ->
        let v = if Float.is_finite v then v else 0. in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v u
    | None -> failwith ("metric not measured: " ^ name)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failed = 0) (max 1 !attempted) !failed
    (String.concat ", " (List.map value names))

let graded_ok = Probes.graded_ok

(* Set-up is timed several times per run: once for real at the start, and
   again during and at the end of the measured window, so that the median
   spans the host's slow and fast spells instead of sitting in one of
   them. [f ~keep:false] sets up, times it and tears down. *)
let setup_times = ref []

let setup_once f ~keep =
  let dt, v = f ~keep in
  setup_times := dt :: !setup_times;
  v

let setup_s () = median !setup_times

let heap_mb () =
  fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* -- closed-loop simulated workloads ------------------------------------ *)

let pool_size = 1024
let warmup_runs = 3
let min_runs = ref 100

(* The warm-up runs are the same for every seed, so that set-up time does
   not depend on which inputs the seed drew. *)
let sim_setup w ~wseed ~keep:_ =
  let t0 = now () in
  let pool = Workloads.pool w ~wseed ~size:pool_size in
  Array.iter
    (fun s -> ignore (Runner.run s))
    (Workloads.pool w ~wseed:0L ~size:warmup_runs);
  (now () -. t0, pool)

(* lat_ms_p90 is the 90th percentile of the run times, each scaled to the
   host's speed in the fastest twentieth of the window. The host this was
   tuned on slows the same code by 1.5-2x in spells of seconds to
   minutes, so a percentile of raw run times moved with the share of the
   window those spells took. Every other run is the pool's first
   scenario, the reference; the run in between is scaled by the 5th
   percentile of all reference runs over the mean of its two neighbouring
   reference runs. The host's speed at the moment cancels, and the scale
   holds as long as a twentieth of the window ran at full speed. The raw
   percentiles and mean are printed under the run_ms names. *)
let sim_e2e w ~wseed ~seconds =
  let pool = setup_once (sim_setup w ~wseed) ~keep:true in
  let n = ref 0 and bad = ref 0 and busy = ref 0. in
  let timed s =
    let t0 = now () in
    let r = Runner.run s in
    let dt = now () -. t0 in
    busy := !busy +. dt;
    if not (graded_ok r) then incr bad;
    incr n;
    dt *. 1e3
  in
  let t_begin = now () in
  (* set-up is timed again at each eighth of the window and at its end *)
  let marks = ref (List.init 7 (fun q -> t_begin +. (seconds *. fi (q + 1) /. 8.))) in
  let deadline = t_begin +. seconds in
  let peak_mb = ref 0. in
  let ref_before = ref (timed pool.(0)) in
  let refs = ref [ !ref_before ] and runs = ref [] and m = ref 0 in
  while !m < !min_runs || now () < deadline do
    let t = timed pool.(1 + (!m mod (pool_size - 1))) in
    let rt = timed pool.(0) in
    runs := (t, (!ref_before +. rt) /. 2.) :: !runs;
    refs := rt :: !refs;
    ref_before := rt;
    incr m;
    match !marks with
    | mk :: rest when now () > mk ->
        (* the peak is read before the set-up samples allocate a second pool *)
        if !peak_mb = 0. then peak_mb := heap_mb ();
        marks := rest;
        ignore (setup_once (sim_setup w ~wseed) ~keep:false);
        ref_before := timed pool.(0);
        refs := !ref_before :: !refs
    | _ -> ()
  done;
  ignore (setup_once (sim_setup w ~wseed) ~keep:false);
  let setup_s = setup_s () in
  checked ~what:"run" !n !bad;
  let fast = Stats.percentile !refs 5. in
  let scaled = List.map (fun (t, around) -> t *. fast /. around) !runs in
  let times = List.map fst !runs in
  metric "setup_s" setup_s "s";
  metric "lat_ms_p90" (Stats.percentile scaled 90.) "ms";
  metric "peak_heap_mb" !peak_mb "MB";
  note "run times scaled to the 5th percentile of %d reference runs (%.3f ms; \
        median %.3f ms):" (List.length !refs) fast (median !refs);
  metric "scaled_ms_p50" (Stats.percentile scaled 50.) "ms";
  metric "scaled_ms_p90" (Stats.percentile scaled 90.) "ms";
  note "the run metrics over the %d raw run times, under their own names:" !m;
  metric "run_ms_p50" (Stats.percentile times 50.) "ms";
  metric "run_ms_p90" (Stats.percentile times 90.) "ms";
  metric "run_ms_mean" (mean times) "ms";
  metric "runs_per_s" (fi !n /. !busy) "1/s";
  metric "samples" (fi !m) "count";
  metric "fail_frac" (fi !bad /. fi !n) "ratio"

(* -- per-layer accounting shared by the traced runs --------------------- *)

type runs = {
  acc : Traced.acc;
  mutable n : int;
  mutable untraced_s : float;
  mutable minor_w : float;
  mutable major_w : float;
  mutable events : int;
  mutable msgs : int;
  mutable bytes : int;
  mutable rounds : float;
  mutable safe_hits : int;
  mutable safe_misses : int;
  mutable intern_hits : int;
  mutable intern_misses : int;
  traffic : (string, int) Hashtbl.t;
  mutable wrong : int;
  mutable unfaithful : int;
}

let runs_create () =
  {
    acc = Traced.create ();
    n = 0;
    untraced_s = 0.;
    minor_w = 0.;
    major_w = 0.;
    events = 0;
    msgs = 0;
    bytes = 0;
    rounds = 0.;
    safe_hits = 0;
    safe_misses = 0;
    intern_hits = 0;
    intern_misses = 0;
    traffic = Hashtbl.create 16;
    wrong = 0;
    unfaithful = 0;
  }

(* One scenario both ways: [Runner.run] untraced and the traced assembly,
   in alternating order. The traced result must equal the untraced one. *)
let traced_pair t ~id s =
  let untraced () =
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let r = Runner.run s in
    t.untraced_s <- t.untraced_s +. (now () -. t0);
    let g1 = Gc.quick_stat () in
    t.minor_w <- t.minor_w +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    t.major_w <- t.major_w +. (g1.Gc.major_words -. g0.Gc.major_words);
    r
  in
  let traced () = Traced.run t.acc ~id s in
  let r, tr =
    if t.n mod 2 = 0 then
      let r = untraced () in
      (r, traced ())
    else
      let tr = traced () in
      (untraced (), tr)
  in
  t.n <- t.n + 1;
  if compare r tr <> 0 then t.unfaithful <- t.unfaithful + 1;
  if not (graded_ok r) then t.wrong <- t.wrong + 1;
  let st = r.Runner.stats in
  t.events <- t.events + st.Engine.events_processed;
  t.msgs <- t.msgs + st.Engine.messages_sent;
  t.bytes <- t.bytes + st.Engine.bytes_sent;
  t.rounds <- t.rounds +. r.Runner.completion_rounds;
  let c = r.Runner.caches in
  t.safe_hits <- t.safe_hits + c.Runner.safe_hits;
  t.safe_misses <- t.safe_misses + c.Runner.safe_misses;
  t.intern_hits <- t.intern_hits + c.Runner.intern_hits;
  t.intern_misses <- t.intern_misses + c.Runner.intern_misses;
  List.iter
    (fun (k, m, _) ->
      Hashtbl.replace t.traffic k
        (m + Option.value ~default:0 (Hashtbl.find_opt t.traffic k)))
    r.Runner.traffic;
  r

let ratio a b = if b = 0 then 0. else fi a /. fi b

let runs_metrics t =
  let a = t.acc in
  let per x = if t.n = 0 then 0. else x /. fi t.n in
  let ms_per x = per x *. 1e3 in
  let split = Traced.split a in
  let self k = List.assoc k split in
  let count k =
    Option.value ~default:0
      (Hashtbl.find_opt t.traffic (Traffic.klass_name k))
  in
  let physical_rbc =
    Traffic.[ Init_rbc; Iteration_rbc; Halt_rbc; Batched_rbc ]
    |> List.fold_left (fun s k -> s + count k) 0
  and votes =
    Traffic.[ Step_init; Step_echo; Step_ready ]
    |> List.fold_left (fun s k -> s + count k) 0
  in
  [
    ("sim.events", per (fi t.events), "count");
    ("sim.msgs_sent", per (fi t.msgs), "count");
    ("sim.bytes_sent", per (fi t.bytes), "bytes");
    ("sim.dispatch_ms", ms_per (self "dispatch"), "ms");
    ("sim.send_ms", ms_per (self "send"), "ms");
    ( "sim.ns_per_event",
      (if t.events = 0 then 0. else self "dispatch" *. 1e9 /. fi t.events),
      "ns" );
    ("party.handler_calls", per (fi a.Traced.handler_calls), "count");
    ("party.self_ms", ms_per (self "party"), "ms");
    ("adversary.handler_ms", ms_per (self "adversary"), "ms");
    ("maaa.rounds", per t.rounds, "rounds");
    ("broadcast.pkts_per_vote", ratio physical_rbc votes, "ratio");
  ]
  @ List.map
      (fun k -> (traffic_name k, per (fi (count k)), "count"))
      Traffic.all_klasses
  @ [
      ("safearea.lookups", per (fi (t.safe_hits + t.safe_misses)), "count");
      ("safearea.misses", per (fi t.safe_misses), "count");
      ("safearea.hit_ratio", ratio t.safe_hits (t.safe_hits + t.safe_misses), "ratio");
      ("safearea.miss_call_ms", ms_per (self "safearea"), "ms");
      ("intern.hits", per (fi t.intern_hits), "count");
      ("intern.misses", per (fi t.intern_misses), "count");
      ( "intern.hit_ratio",
        ratio t.intern_hits (t.intern_hits + t.intern_misses),
        "ratio" );
      ("gc.minor_mw_per_run", per t.minor_w /. 1e6, "Mw");
      ("gc.major_mw_per_run", per t.major_w /. 1e6, "Mw");
      ( "trace.overhead_frac",
        (if t.untraced_s > 0. then (a.Traced.total_s /. t.untraced_s) -. 1.
         else 0.),
        "ratio" );
    ]

(* The traced run's time split, as shares of the traced wall time. *)
let print_split ~workload t =
  let a = t.acc in
  let total = a.Traced.total_s in
  let parts = Traced.split a in
  note "layer split (%s, %d traced runs, %.1f ms/run): %s" workload t.n
    (if t.n = 0 then 0. else total *. 1e3 /. fi t.n)
    (String.concat " "
       (List.map
          (fun (k, s) ->
            Printf.sprintf "%s=%.1f%%" k (if total > 0. then 100. *. s /. total else 0.))
          parts));
  note "party.flush_ms = %.4f ms/run over %d flush calls (printed only: no \
        flush hook is registered under the default message layer)"
    (if t.n = 0 then 0. else (List.assoc "flush" parts) *. 1e3 /. fi t.n)
    a.Traced.flush_calls

let emit_layers ~host_calib metrics =
  List.iter (fun (n, v, u) -> metric n v u) metrics;
  metric "host.calib_ms" host_calib "ms"

(* -- serve probes -------------------------------------------------------- *)

let server_exe = ref "_build/default/bin/serve_main.exe"

(* The load generator keeps at most this many connections open. *)
let max_open = Domain.recommended_domain_count ()

let agree_line (s : Scenario.t) =
  let c = s.Scenario.cfg in
  let vec v = String.concat "," (List.map (Printf.sprintf "%.17g") (Vec.to_list v)) in
  Printf.sprintf "agree v=1 d=%d eps=%.17g delta=%d ts=%d ta=%d seed=%Ld inputs=%s"
    c.Config.d c.eps c.delta c.ts c.ta s.seed
    (String.concat ";" (List.map vec s.inputs))

(* Checks each connection's replies against [Serve.handle_batch] on the
   same lines, and returns per-connection handle times. A request is wrong
   when its reply differs, is an [err], or is missing. *)
let oracle (sched : (float * string list) array) (outs : Loadgen.outcome array) =
  let bad = ref 0 and n = ref 0 in
  let handle =
    Array.mapi
      (fun k (_, lines) ->
        let t0 = now () in
        let expect = Serve.handle_batch lines in
        let dt = now () -. t0 in
        let got = Option.value ~default:[] outs.(k).Loadgen.replies in
        List.iteri
          (fun i e ->
            incr n;
            let ok =
              match List.nth_opt got i with
              | Some g -> g = e && String.starts_with ~prefix:"ok " g
              | None -> false
            in
            if not ok then incr bad)
          expect;
        if List.length got > List.length expect then incr bad;
        dt)
      sched
  in
  (handle, !n, !bad)

(* A short socket pass over [sched], its oracle check, and the serve
   figures derived from both. *)
let serve_probe sv ~what sched =
  let srv = Loadgen.start !server_exe in
  let outs =
    Fun.protect ~finally:(fun () -> Loadgen.stop srv) @@ fun () ->
    Loadgen.run ~port:srv.Loadgen.port ~max_open ~deadline:(now () +. 60.) sched
  in
  let handle, n, bad = oracle sched outs in
  checked ~what n bad;
  let svc = Probes.service_times outs in
  Array.iteri
    (fun k (_, lines) ->
      Probes.parse_lines sv ~reps:3 lines;
      Probes.account_conn sv ~obs:svc.(k) ~handle:handle.(k);
      sv.Probes.late <- (outs.(k).started -. outs.(k).due) :: sv.Probes.late;
      Span_log.add ~cat:"serve" ~id:k ~parent:"" "serve.conn"
        ~start:outs.(k).Loadgen.started ~stop:outs.(k).finished
        ~args:[ ("requests", fi (List.length lines)); ("handle_ms", handle.(k) *. 1e3) ])
    sched;
  outs

(* -- traced run of a simulated workload --------------------------------- *)

let sim_layers w ~wseed ~seconds ~host_calib =
  let _, pool = sim_setup w ~wseed ~keep:true in
  let t = runs_create () in
  let deadline = now () +. (0.6 *. seconds) in
  let i = ref 0 in
  while !i < 20 || now () < deadline do
    ignore (traced_pair t ~id:!i pool.(!i mod pool_size));
    incr i
  done;
  checked ~what:"traced run" t.n t.wrong;
  checked ~what:"traced-vs-untraced" t.n t.unfaithful;
  (* the other layers, driven with this workload's own scenarios *)
  let mux = Probes.mux_create () in
  Probes.mux_group mux ~id:0 (Array.to_list (Array.sub pool 0 8));
  Probes.mux_group mux ~id:1 (Array.to_list (Array.sub pool 8 8));
  checked ~what:"multiplexed" mux.Probes.instances mux.Probes.mux_wrong;
  (* The net backend spends milliseconds of wall time per distinct tick
     under random delays, so an async-d2 run over TCP takes over a minute;
     there the probe carries the same scenario on lockstep delays. *)
  let net = Probes.net_create () in
  let s0 = pool.(0) in
  ignore
    (Probes.net_run net ~id:0
       (if w.Workloads.sync then s0
        else { s0 with Scenario.policy = Network.lockstep ~delta:w.delta }));
  checked ~what:"net" 1 net.Probes.net_wrong;
  let sv = Probes.serve_create () in
  let sched = Array.init 4 (fun k -> (0.1 *. fi k, [ agree_line pool.(k) ])) in
  ignore (serve_probe sv ~what:"serve probe" sched);
  print_split ~workload:w.Workloads.name t;
  emit_layers ~host_calib
    (runs_metrics t @ Probes.mux_metrics mux @ Probes.serve_metrics sv
   @ Probes.net_metrics net)

(* -- serve-mix ---------------------------------------------------------- *)

(* Offered load, in requests/sec, of the fixed-rate pass whose latency is
   reported, and the ladder searched for the highest rate whose p90
   latency stays within [lat_limit_ms] with no growing generator lag:
   the lag over a rung's last quarter may exceed that over its first
   quarter by at most [lag_growth_ms]. Shares of --seconds go to the
   nominal passes and to each rung the search visits. *)
let nominal_rate = 200.
let lat_limit_ms = 250.
let lag_growth_ms = 25.
let nominal_share = 0.5

(* The nominal schedule is served this many times: before, amid and after
   the ladder search. A request's latency is the least over the replays,
   so a slow spell of the host (1.5-2x on the host this was tuned on, for
   seconds at a time) counts only if it hit the request in every replay. *)
let nominal_replays = 3
let rung_share = 0.07
let ladder = Array.init 64 (fun i -> 100. *. (1.06 ** fi i))

(* [count] connections of the stream, due at a fixed rate. *)
let schedule st ~rate ~count =
  let gap = Workloads.mean_requests_per_conn /. rate in
  Array.init count (fun k -> (gap *. fi k, Workloads.next_conn st))

let count_for ~rate ~secs =
  max 4 (int_of_float (secs *. rate /. Workloads.mean_requests_per_conn))

(* Per-request latency, from when its connection was due, in ms; a
   request that got no reply counts as missing any limit. *)
let latencies sched (outs : Loadgen.outcome array) =
  Array.to_list
    (Array.mapi
       (fun k (_, lines) ->
         let o = outs.(k) in
         let l =
           if o.Loadgen.replies = None then infinity
           else (o.finished -. o.due) *. 1e3
         in
         List.map (fun _ -> l) lines)
       sched)
  |> List.concat

(* Requests answered per second over served passes, each from its first
   connection's due time to its last reply. *)
let achieved passes =
  let replied = ref 0 and span = ref 0. in
  List.iter
    (fun (sched, (outs : Loadgen.outcome array)) ->
      let last = ref neg_infinity in
      Array.iteri
        (fun k o ->
          last := Float.max !last o.Loadgen.finished;
          if o.Loadgen.replies <> None then
            replied := !replied + List.length (snd sched.(k)))
        outs;
      span := !span +. (!last -. outs.(0).Loadgen.due))
    passes;
  fi !replied /. !span

let lateness_ms (outs : Loadgen.outcome array) =
  Array.to_list (Array.map (fun o -> (o.Loadgen.started -. o.due) *. 1e3) outs)

(* A rung passes when p90 latency meets the limit and the generator's lag
   does not grow. *)
let rung_ok sched outs =
  let lat = latencies sched outs in
  let late = Array.of_list (lateness_ms outs) in
  let q = max 1 (Array.length late / 4) in
  let first = median (Array.to_list (Array.sub late 0 q))
  and last = median (Array.to_list (Array.sub late (Array.length late - q) q)) in
  let p90 = Stats.percentile lat 90. in
  (p90 <= lat_limit_ms && last -. first <= lag_growth_ms, p90)

let serve_setup ~wseed ~inject ~nominal_count ~keep =
  let t0 = now () in
  let st = Workloads.stream ~wseed in
  let nominal = schedule st ~rate:nominal_rate ~count:nominal_count in
  let nominal =
    if inject then begin
      (* self-test only: a malformed line and an infeasible configuration *)
      let due, lines = nominal.(0) in
      nominal.(0) <-
        ( due,
          lines
          @ [
              "agree v=1 d=one eps=0.05";
              "agree v=1 d=1 eps=0.05 delta=4 ts=2 ta=0 inputs=0;1;0.5;0.2";
            ] );
      nominal
    end
    else nominal
  in
  let srv = Loadgen.start !server_exe in
  (* warm-up: one single request and one batch, the same for every seed,
     closed loop *)
  let warm = Workloads.stream ~wseed:0L in
  let warm_sched =
    Array.init 2 (fun _ -> (0., Workloads.next_conn warm))
  in
  (try
     ignore
       (Loadgen.run ~port:srv.Loadgen.port ~max_open:1
          ~deadline:(now () +. 60.) warm_sched)
   with e ->
     Loadgen.stop srv;
     raise e);
  let dt = now () -. t0 in
  if not keep then Loadgen.stop srv;
  (dt, (st, nominal, srv))

let serve_e2e ~wseed ~seconds ~inject =
  let nominal_count =
    count_for ~rate:nominal_rate ~secs:(nominal_share *. seconds /. fi nominal_replays)
  in
  let setup = serve_setup ~wseed ~inject ~nominal_count in
  let st, nominal, srv = setup_once setup ~keep:true in
  let again () = ignore (setup_once setup ~keep:false) in
  let passes = ref [] in
  let served sched =
    let outs =
      Loadgen.run ~port:srv.Loadgen.port ~max_open
        ~deadline:(now () +. 60. +. (4. *. seconds)) sched
    in
    passes := (sched, outs) :: !passes;
    outs
  in
  let nominal_passes = ref [] in
  let serve_nominal () =
    nominal_passes := (nominal, served nominal) :: !nominal_passes
  in
  let peak_mb, (best, best_achieved) =
    Fun.protect ~finally:(fun () -> Loadgen.stop srv) @@ fun () ->
    serve_nominal ();
    again ();
    (* binary search of the fixed ladder *)
    let rung_secs = rung_share *. seconds in
    let visited = Hashtbl.create 8 in
    let lo = ref (-1) and hi = ref (Array.length ladder) in
    while !hi - !lo > 1 do
      if Hashtbl.length visited = 3 then serve_nominal ();
      let mid = (!lo + !hi) / 2 in
      let rate = ladder.(mid) in
      let sched = schedule st ~rate ~count:(count_for ~rate ~secs:rung_secs) in
      let outs = served sched in
      let ok, p90 = rung_ok sched outs in
      Hashtbl.replace visited mid (achieved [ (sched, outs) ]);
      note "ladder rung %.1f req/s: p90 %.1f ms, achieved %.1f req/s -> %s" rate
        p90 (Hashtbl.find visited mid)
        (if ok then "meets" else "misses");
      if ok then lo := mid else hi := mid
    done;
    (* when no rung meets the limit, the lowest rung's figures stand in *)
    let best = max !lo 0 in
    if !lo < 0 then note "no ladder rung met the latency limit";
    if List.length !nominal_passes < 2 then serve_nominal ();
    serve_nominal ();
    again ();
    (Loadgen.peak_rss_mb srv, (ladder.(best), Hashtbl.find visited best))
  in
  (* every reply of every pass, checked after the daemon is stopped *)
  List.iter
    (fun (sched, outs) ->
      let _, n, bad = oracle sched outs in
      checked ~what:"serve request" n bad)
    !passes;
  let lat =
    match List.map (fun (sched, outs) -> latencies sched outs) !nominal_passes with
    | first :: rest -> List.fold_left (List.map2 Float.min) first rest
    | [] -> []
  in
  let late = List.concat_map (fun (_, outs) -> lateness_ms outs) !nominal_passes in
  metric "setup_s" (setup_s ()) "s";
  metric "lat_ms_p90" (Stats.percentile lat 90.) "ms";
  metric "peak_heap_mb" peak_mb "MB";
  note "the serve metrics under their own names:";
  metric "lat_ms_p50" (Stats.percentile lat 50.) "ms";
  metric "lat_ms_mean" (mean lat) "ms";
  metric "req_per_s_max" best "1/s";
  metric "req_per_s_at_max" best_achieved "1/s";
  metric "offered_req_per_s" nominal_rate "1/s";
  metric "achieved_req_per_s" (achieved !nominal_passes) "1/s";
  metric "samples" (fi (List.length lat)) "count";
  metric "loadgen.late_ms_p90" (Stats.percentile late 90.) "ms";
  metric "fail_frac" (fi !failed /. fi (max 1 !attempted)) "ratio"

let serve_layers ~wseed ~seconds ~host_calib =
  let st = Workloads.stream ~wseed in
  let sched =
    schedule st ~rate:nominal_rate
      ~count:(count_for ~rate:nominal_rate ~secs:(nominal_share *. seconds))
  in
  let sv = Probes.serve_create () in
  ignore (serve_probe sv ~what:"serve request" sched);
  (* in-process replay of the same connections, layer by layer *)
  let t = runs_create () and mux = Probes.mux_create () and net = Probes.net_create () in
  let deadline = now () +. (0.6 *. seconds) in
  let req = ref 0 and bad_parse = ref 0 in
  Array.iteri
    (fun k (_, lines) ->
      if k < 4 || now () < deadline then begin
        let sims =
          List.filter_map
            (fun line ->
              incr req;
              match Result.bind (Serve.parse_request line) Serve.scenario_of_request with
              | Error _ -> incr bad_parse; None
              | Ok s when s.Scenario.transport = `Net ->
                  ignore (Probes.net_run net ~id:!req s);
                  None
              | Ok s -> ignore (traced_pair t ~id:!req s); Some s)
            lines
        in
        if List.length lines > 1 then
          Probes.mux_group mux ~id:k (List.filter Multi_runner.muxable sims)
      end)
    sched;
  checked ~what:"parsed request" !req !bad_parse;
  checked ~what:"traced run" t.n t.wrong;
  checked ~what:"traced-vs-untraced" t.n t.unfaithful;
  checked ~what:"multiplexed" mux.Probes.instances mux.Probes.mux_wrong;
  checked ~what:"net" net.Probes.runs net.Probes.net_wrong;
  print_split ~workload:"serve-mix" t;
  let per_conn x = if sv.Probes.conns = 0 then 0. else x *. 1e3 /. fi sv.Probes.conns in
  note "serve path per connection: %.2f ms handle_batch + %.2f ms socket; \
        per batched instance: %.0f us multiplexed vs %.0f us sequential"
    (per_conn sv.Probes.handle_s) (per_conn sv.Probes.socket_s)
    (if mux.Probes.instances = 0 then 0. else mux.Probes.mux_s *. 1e6 /. fi mux.Probes.instances)
    (if mux.Probes.instances = 0 then 0. else mux.Probes.seq_s *. 1e6 /. fi mux.Probes.instances);
  emit_layers ~host_calib
    (runs_metrics t @ Probes.mux_metrics mux @ Probes.serve_metrics sv
   @ Probes.net_metrics net)

(* -- driver -------------------------------------------------------------- *)

let workloads = [ "sync-d3"; "async-d2"; "serve-mix" ]

let run_workload ~name ~wseed ~seconds ~trace ~inject =
  printed := [];
  setup_times := [];
  attempted := 0;
  failed := 0;
  let host_calib = Host_info.calib_ms () in
  note "host %s calib_ms=%.3f" (Host_info.describe ()) host_calib;
  note "workload %s seed %Ld seconds %g trace %b" name wseed seconds trace;
  let sim = match name with "sync-d3" -> Some Workloads.sync_d3 | "async-d2" -> Some Workloads.async_d2 | _ -> None in
  if trace then begin
    (match sim with
    | Some w -> sim_layers w ~wseed ~seconds ~host_calib
    | None -> serve_layers ~wseed ~seconds ~host_calib);
    let dir = Filename.concat "perfbench" "_out" in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat dir (Printf.sprintf "trace-%s-%Ld.json" name wseed) in
    Span_log.write path;
    note "wrote %d spans to %s" (Span_log.count ()) path
  end
  else begin
    match sim with
    | Some w -> sim_e2e w ~wseed ~seconds
    | None -> serve_e2e ~wseed ~seconds ~inject
  end;
  note "attempted %d failed %d" !attempted !failed;
  if trace then layer_names else e2e_names

(* -- self-test ------------------------------------------------------------ *)

(* The (name, unit) pairs listed under [section] in ./BENCHMARK.json, in
   order. *)
let benchmark_metrics section =
  let j = Option.value ~default:"" (Host_info.read_file "BENCHMARK.json") in
  let key = Printf.sprintf "%S" section in
  let rec find i =
    if i + String.length key > String.length j then None
    else if String.sub j i (String.length key) = key then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> []
  | Some i ->
      let stop = String.index_from j i ']' in
      let rec pairs = function
        | "name" :: _ :: n :: _ :: "unit" :: _ :: u :: rest -> (n, u) :: pairs rest
        | _ :: rest -> pairs rest
        | [] -> []
      in
      pairs (String.split_on_char '"' (String.sub j i (stop - i)))

(* Short mode: every workload both ways at one second, with every named
   metric printed with a unit and no failures; then a serve-mix pass with
   a malformed line and an infeasible request injected, both of which
   must be counted as failures. *)
let self_test () =
  min_runs := 5;
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        ok := false;
        print_endline ("self-test: FAIL " ^ s))
      fmt
  in
  let listed = benchmark_metrics "end_to_end" @ benchmark_metrics "per_layer" in
  if List.map fst listed <> e2e_names @ layer_names then
    fail "BENCHMARK.json lists other metrics than the benchmark prints";
  let doc = Option.value ~default:"" (Host_info.read_file "perfbench/layers.json") in
  List.iter
    (fun n ->
      if not (List.mem n (String.split_on_char '"' doc)) then
        fail "perfbench/layers.json does not map %s to a layer" n)
    layer_names;
  let issue_names name trace =
    match (name, trace) with
    | _, true -> [ "host.calib_ms" ]
    | "serve-mix", false ->
        [ "req_per_s_max"; "lat_ms_p50"; "lat_ms_p90"; "fail_frac"; "peak_heap_mb"; "setup_s" ]
    | _, false ->
        [ "run_ms_p50"; "run_ms_p90"; "runs_per_s"; "samples"; "fail_frac"; "peak_heap_mb"; "setup_s" ]
  in
  List.iter
    (fun name ->
      List.iter
        (fun trace ->
          Span_log.spans := [];
          let names = run_workload ~name ~wseed:1L ~seconds:1. ~trace ~inject:false in
          List.iter
            (fun n ->
              match List.find_opt (fun (m, _, _) -> m = n) !printed with
              | Some (_, v, u)
                when u <> "" && Float.is_finite v
                     && Option.fold ~none:true ~some:(( = ) u) (List.assoc_opt n listed) ->
                  ()
              | _ -> fail "%s trace=%b: %s not printed with its unit" name trace n)
            (names @ issue_names name trace);
          if !failed <> 0 then
            fail "%s trace=%b: %d failures on a clean workload" name trace !failed)
        [ false; true ])
    workloads;
  ignore (run_workload ~name:"serve-mix" ~wseed:1L ~seconds:1. ~trace:false ~inject:true);
  (* the injected lines are in the nominal schedule, served in each replay *)
  if !failed <> 2 * nominal_replays then
    fail "an injected malformed line and infeasible request gave %d failures, want %d"
      !failed (2 * nominal_replays);
  print_endline (if !ok then "self-test: OK" else "self-test: FAILED");
  if !ok then 0 else 1

let usage () =
  prerr_endline
    "usage: bench.exe --workload sync-d3|async-d2|serve-mix --seed N \
     --seconds S --trace 0|1 [--server PATH] | --self-test";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None and self_check = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest when List.mem v workloads -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := Int64.of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--server" :: v :: rest -> server_exe := v; parse rest
    | "--self-test" :: rest -> self_check := true; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !self_check then exit (self_test ())
  else
    match (!workload, !seed, !seconds, !trace) with
    | Some name, Some wseed, Some seconds, Some trace when seconds > 0. ->
        let names = run_workload ~name ~wseed ~seconds ~trace ~inject:false in
        print_endline (json_result names);
        exit (if !failed = 0 then 0 else 1)
    | _ -> usage ()
