(* Measurements of one layer each, driven through the layer's public
   functions on a workload's own inputs: the multi-instance engine, the
   serve front door (in process and over its socket) and the net
   backend with its codec. Each adds its figures, and the number of
   wrong outputs it saw, to a record of its own. *)

let now = Unix.gettimeofday

(* A run's outputs are right when it completed and is live, valid and
   ε-agreeing. *)
let graded_ok (r : Runner.result) =
  r.Runner.termination = Runner.Completed
  && r.live && r.valid && r.agreement

(* [caches] legitimately differs between a multiplexed run and a
   dedicated one: it reports the shared totals. *)
let same_but_caches (a : Runner.result) (b : Runner.result) =
  compare { a with Runner.caches = b.Runner.caches } b = 0

(* -- Multi_runner -------------------------------------------------------- *)

type mux = {
  mutable groups : int;
  mutable instances : int;
  mutable mux_s : float;
  mutable seq_s : float;
  mutable safe_hits : int;
  mutable intern_hits : int;
  mutable mux_wrong : int;
}

let mux_create () =
  {
    groups = 0;
    instances = 0;
    mux_s = 0.;
    seq_s = 0.;
    safe_hits = 0;
    intern_hits = 0;
    mux_wrong = 0;
  }

(* Runs [scens] as one multiplexed group and one by one, in alternating
   order, and checks the group against the sequential results. *)
let mux_group m ~id scens =
  let seq () =
    let t0 = now () in
    let rs = List.map Runner.run scens in
    m.seq_s <- m.seq_s +. (now () -. t0);
    rs
  in
  let group () =
    Span_log.timed ~cat:"mux" ~id ~parent:"serve.conn" "mux.run_group"
      (fun () ->
        let t0 = now () in
        let rs = Multi_runner.run_group scens in
        m.mux_s <- m.mux_s +. (now () -. t0);
        rs)
  in
  let rs, ms =
    if m.groups mod 2 = 0 then
      let rs = seq () in
      (rs, group ())
    else
      let ms = group () in
      (seq (), ms)
  in
  let gs = Multi_runner.group_stats ms in
  m.groups <- m.groups + 1;
  m.instances <- m.instances + List.length scens;
  m.safe_hits <- m.safe_hits + gs.Multi_runner.safe_hits;
  m.intern_hits <- m.intern_hits + gs.Multi_runner.intern_hits;
  List.iter2
    (fun r mr ->
      if not (graded_ok mr && same_but_caches mr r) then
        m.mux_wrong <- m.mux_wrong + 1)
    rs ms

let mux_metrics m =
  let per_group x =
    if m.groups = 0 then 0. else float_of_int x /. float_of_int m.groups
  in
  let per_inst s =
    if m.instances = 0 then 0. else s *. 1e6 /. float_of_int m.instances
  in
  [
    ("mux.instances_per_group", per_group m.instances, "count");
    ("mux.us_per_instance", per_inst m.mux_s, "us");
    ("mux.seq_us_per_instance", per_inst m.seq_s, "us");
    ( "mux.speedup_vs_seq",
      (if m.mux_s > 0. then m.seq_s /. m.mux_s else 0.),
      "ratio" );
    ("mux.safe_hits", per_group m.safe_hits, "count");
    ("mux.intern_hits", per_group m.intern_hits, "count");
  ]

(* -- net backend and codec ---------------------------------------------- *)

type net = {
  mutable runs : int;
  mutable net_s : float;
  mutable sim_s : float;
  mutable frames : int;
  mutable retransmits : int;
  mutable reconnects : int;
  mutable decode_errors : int;
  mutable msgs : int;
  mutable codec_s : float;
  mutable net_wrong : int;
}

let net_create () =
  {
    runs = 0;
    net_s = 0.;
    sim_s = 0.;
    frames = 0;
    retransmits = 0;
    reconnects = 0;
    decode_errors = 0;
    msgs = 0;
    codec_s = 0.;
    net_wrong = 0;
  }

(* Runs [s] over the loopback TCP backend, capturing its sends, and on
   the simulator. The two results must agree on everything but the
   backend fields; the captured sends are then put through
   [Codec.encode_record]/[decode_record] and must come back equal. *)
let net_run t ~id (s : Scenario.t) =
  let s_net = { s with Scenario.transport = `Net } in
  let s_sim = { s with Scenario.transport = `Sim } in
  let sent = ref [] in
  let tracer = function
    | Engine.Sent { msg; deliver_at; _ } -> sent := (deliver_at, msg) :: !sent
    | _ -> ()
  in
  let t0 = now () in
  let rn =
    Span_log.timed ~cat:"net" ~id ~parent:"request" "net.run" (fun () ->
        Runner.run ~tracer s_net)
  in
  let t1 = now () in
  let rs = Runner.run s_sim in
  let t2 = now () in
  t.runs <- t.runs + 1;
  t.net_s <- t.net_s +. (t1 -. t0);
  t.sim_s <- t.sim_s +. (t2 -. t1);
  (match rn.Runner.wire with
  | Some w ->
      t.frames <- t.frames + w.Netrun.frames_sent;
      t.retransmits <- t.retransmits + w.Netrun.retransmits;
      t.reconnects <- t.reconnects + w.Netrun.reconnects;
      t.decode_errors <- t.decode_errors + w.Netrun.decode_errors
  | None -> t.net_wrong <- t.net_wrong + 1);
  let backend_free r = { r with Runner.transport = `Sim; wire = None } in
  if not (graded_ok rn && compare (backend_free rn) rs = 0) then
    t.net_wrong <- t.net_wrong + 1;
  let msgs = Array.of_list (List.rev !sent) in
  let codec_pass () =
    let ok = ref true in
    let c0 = now () in
    Array.iteri
      (fun seq (deliver_at, msg) ->
        let b = Codec.encode_record ~engine_seq:seq ~deliver_at msg in
        let seq', at', msg' = Codec.decode_record b in
        if seq' <> seq || at' <> deliver_at || compare msg' msg <> 0 then
          ok := false)
      msgs;
    (now () -. c0, !ok)
  in
  let passes = List.init 3 (fun _ -> codec_pass ()) in
  if not (List.for_all snd passes) then t.net_wrong <- t.net_wrong + 1;
  t.msgs <- t.msgs + Array.length msgs;
  t.codec_s <-
    t.codec_s
    +. Stats.percentile (List.map fst passes) 50.;
  (rn, rs, t2 -. t1)

let net_metrics t =
  let per_run x = if t.runs = 0 then 0. else float_of_int x /. float_of_int t.runs in
  [
    ("net.frames_sent", per_run t.frames, "count");
    ("net.retransmits", per_run t.retransmits, "count");
    ("net.reconnects", per_run t.reconnects, "count");
    ("net.decode_errors", per_run t.decode_errors, "count");
    ( "net.codec_us_per_msg",
      (if t.msgs = 0 then 0. else t.codec_s *. 1e6 /. float_of_int t.msgs),
      "us" );
    ( "net.overhead_ms_per_run",
      (if t.runs = 0 then 0.
       else (t.net_s -. t.sim_s) *. 1e3 /. float_of_int t.runs),
      "ms" );
  ]

(* -- the serve front door ----------------------------------------------- *)

type serve = {
  mutable reqs : int;
  mutable parse_s : float;
  mutable conns : int;
  mutable handle_s : float;
  mutable socket_s : float;
  mutable late : float list;
  mutable serve_wrong : int;
}

let serve_create () =
  {
    reqs = 0;
    parse_s = 0.;
    conns = 0;
    handle_s = 0.;
    socket_s = 0.;
    late = [];
    serve_wrong = 0;
  }

(* Parse time of each line, timed over [reps] repetitions. *)
let parse_lines t ~reps lines =
  let t0 = now () in
  for _ = 1 to reps do
    List.iter (fun l -> ignore (Sys.opaque_identity (Serve.parse_request l))) lines
  done;
  t.parse_s <- t.parse_s +. ((now () -. t0) /. float_of_int reps);
  t.reqs <- t.reqs + List.length lines

(* Accounts one connection the socket pass served: [obs] is its
   client-observed service time (from when the serial daemon could start
   on it to its last reply), [handle] the in-process [Serve.handle_batch]
   time of the same lines. *)
let account_conn t ~obs ~handle =
  t.conns <- t.conns + 1;
  t.handle_s <- t.handle_s +. handle;
  t.socket_s <- t.socket_s +. (obs -. handle)

(* Client-observed service times of a served schedule: the daemon takes
   connections one at a time, so a connection's service starts when it
   was opened or when the previous one finished, whichever is later. *)
let service_times (outs : Loadgen.outcome array) =
  let order = Array.init (Array.length outs) Fun.id in
  Array.sort (fun a b -> compare outs.(a).Loadgen.finished outs.(b).finished) order;
  let prev = ref neg_infinity in
  let svc = Array.make (Array.length outs) nan in
  Array.iter
    (fun k ->
      let o = outs.(k) in
      svc.(k) <- o.Loadgen.finished -. Float.max o.started !prev;
      prev := o.finished)
    order;
  svc

let serve_metrics t =
  [
    ( "serve.parse_us_per_req",
      (if t.reqs = 0 then 0. else t.parse_s *. 1e6 /. float_of_int t.reqs),
      "us" );
    ( "serve.handle_ms_per_conn",
      (if t.conns = 0 then 0. else t.handle_s *. 1e3 /. float_of_int t.conns),
      "ms" );
    ( "serve.socket_ms_per_conn",
      (if t.conns = 0 then 0. else t.socket_s *. 1e3 /. float_of_int t.conns),
      "ms" );
    ( "loadgen.late_ms_p90",
      (if t.late = [] then 0. else Stats.percentile t.late 90. *. 1e3),
      "ms" );
  ]
