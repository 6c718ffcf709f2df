(* Tests for the simulation substrate: RNG, event queue, engine, delay
   policies. *)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_ranges () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    Alcotest.(check bool) "int in range" true (x >= 0 && x < 10);
    let f = Rng.float01 r in
    Alcotest.(check bool) "float01 in range" true (f >= 0. && f < 1.);
    let g = Rng.float_range r 2. 5. in
    Alcotest.(check bool) "float_range" true (g >= 2. && g < 5.)
  done

let test_rng_split () =
  let a = Rng.create 42L in
  let c = Rng.split a in
  (* the split stream differs from the parent's continuation *)
  Alcotest.(check bool) "independent" true
    (Rng.next_int64 c <> Rng.next_int64 a)

let test_rng_coverage () =
  let r = Rng.create 3L in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    seen.(Rng.int r 10) <- true
  done;
  Alcotest.(check bool) "all buckets hit" true (Array.for_all Fun.id seen)

let test_rng_shuffle () =
  let r = Rng.create 5L in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 Fun.id) sorted

(* --- Event queue ---

   The "heap" test names predate the tick-bucket queue; they now pin the
   queue that replaced the heap. The oracle for every property is a sort
   by (tick, seq), ties kept in push order. *)

let drain q =
  let rec go acc =
    if Tick_queue.is_empty q then List.rev acc
    else go (Tick_queue.pop_exn q :: acc)
  in
  go []

let test_heap_sorts () =
  let q = Tick_queue.create () in
  let input = [ 5; 3; 8; 1; 9; 2; 7; 1; 4 ] in
  List.iteri
    (fun i tick -> Tick_queue.push q ~tick ~seq:i ~target:0 (tick, i))
    input;
  Alcotest.(check int) "size" (List.length input) (Tick_queue.size q);
  Alcotest.(check (list (pair int int)))
    "sorted by (tick, seq)"
    (List.sort compare (List.mapi (fun i tick -> (tick, i)) input))
    (drain q)

let test_heap_empty () =
  let q = Tick_queue.create () in
  Alcotest.(check bool) "empty" true (Tick_queue.is_empty q);
  Alcotest.check_raises "min_tick empty"
    (Invalid_argument "Tick_queue.min_tick: empty queue") (fun () ->
      ignore (Tick_queue.min_tick q));
  Tick_queue.push q ~tick:3 ~seq:1 ~target:7 "x";
  Alcotest.(check int) "min tick" 3 (Tick_queue.min_tick q);
  Alcotest.(check int) "min seq" 1 (Tick_queue.min_seq q);
  Alcotest.(check int) "min target" 7 (Tick_queue.min_target q);
  ignore (Tick_queue.pop_exn q);
  Alcotest.(check bool) "drained" true (Tick_queue.is_empty q)

let test_heap_pop_exn () =
  let q = Tick_queue.create () in
  Alcotest.check_raises "pop_exn empty"
    (Invalid_argument "Tick_queue.pop_exn: empty queue") (fun () ->
      ignore (Tick_queue.pop_exn q));
  List.iteri (fun i x -> Tick_queue.push q ~tick:x ~seq:i ~target:0 x) [ 4; 2; 9 ];
  Alcotest.(check int) "min first" 2 (Tick_queue.pop_exn q);
  Alcotest.(check int) "then" 4 (Tick_queue.pop_exn q);
  Alcotest.check_raises "push below the cursor"
    (Invalid_argument "Tick_queue.push: tick below the cursor") (fun () ->
      Tick_queue.push q ~tick:3 ~seq:9 ~target:0 3);
  Alcotest.(check int) "then" 9 (Tick_queue.pop_exn q);
  Alcotest.(check bool) "drained" true (Tick_queue.is_empty q)

let test_queue_wide_span () =
  (* a pending span past 100 000 ticks grows the ring, and one past the
     ring's largest size (2^17 slots) wraps it: ticks 2^17 apart then
     share a slot, still popping in (tick, seq) order *)
  let q = Tick_queue.create () in
  let wrap = 1 lsl 17 in
  let entries =
    [ (100_050, 0); (0, 1); (64, 2); (5 + wrap, 3); (100_000, 4); (5, 5);
      (5 + (2 * wrap), 6); (5 + wrap, 7); (63, 8); (250_000, 9); (1, 10);
      (5 + wrap, 0) (* an older seq, as from a wire re-injection *) ]
  in
  List.iter
    (fun (tick, seq) -> Tick_queue.push q ~tick ~seq ~target:0 (tick, seq))
    entries;
  let sorted = List.sort compare entries in
  let seen = ref [] in
  Tick_queue.iter q (fun ~tick ~seq ~target:_ e ->
      Alcotest.(check (pair int int)) "iter labels" (tick, seq) e;
      seen := e :: !seen);
  Alcotest.(check (list (pair int int))) "iter order" sorted (List.rev !seen);
  Alcotest.(check (pair int int)) "min" (0, 1) (Tick_queue.pop_exn q);
  (* the cursor is now 0: a push far ahead of it lands in a wrapped slot *)
  Tick_queue.push q ~tick:(1 + (3 * wrap)) ~seq:99 ~target:0 (1 + (3 * wrap), 99);
  Alcotest.(check (list (pair int int))) "pops in (tick, seq) order"
    (List.tl sorted @ [ (1 + (3 * wrap), 99) ])
    (drain q)

let test_queue_no_alloc () =
  (* once the pool and ring have grown, a push and a pop allocate nothing *)
  let q = Tick_queue.create () in
  for i = 0 to 999 do
    Tick_queue.push q ~tick:(i mod 50) ~seq:i ~target:0 i
  done;
  let before = Gc.minor_words () in
  for i = 1000 to 100_999 do
    let tick = Tick_queue.min_tick q in
    ignore (Tick_queue.min_target q + Tick_queue.pop_exn q);
    Tick_queue.push q ~tick:(tick + 1 + (i mod 50)) ~seq:i ~target:0 i
  done;
  Alcotest.(check (float 0.)) "minor words" 0. (Gc.minor_words () -. before)

let prop_heap =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list (pair (int_bound 300) (int_bound 50)))
    (fun l ->
      (* any tick order, seqs out of order and repeated *)
      let q = Tick_queue.create () in
      List.iteri
        (fun i (tick, seq) -> Tick_queue.push q ~tick ~seq ~target:i (tick, seq, i))
        l;
      let oracle =
        List.stable_sort
          (fun (t1, s1, _) (t2, s2, _) -> compare (t1, s1) (t2, s2))
          (List.mapi (fun i (tick, seq) -> (tick, seq, i)) l)
      in
      drain q = oracle)

type queue_op =
  | Push of int * int  (* ticks past the cursor, seq age (0 = fresh) *)
  | Pop
  | Peek

let gen_queue_op =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map2
            (fun d age -> Push (d, age))
            (frequency
               [
                 (12, int_bound 3);
                 (6, int_bound 100);
                 (1, int_bound 120_000);
                 (1, int_bound 400_000);
                 (* a multiple of the ring's largest size away: shares a
                    slot with a nearer tick *)
                 (2, map2 (fun k d -> (k lsl 17) + d) (int_range 1 3) (int_bound 3));
               ])
            (frequency [ (3, return 0); (1, int_bound 20) ]) );
        (3, return Pop);
        (1, return Peek);
      ])

let show_queue_op = function
  | Push (d, age) -> Printf.sprintf "Push(%d,%d)" d age
  | Pop -> "Pop"
  | Peek -> "Peek"

(* Interleaved pushes, peeks and pops against a sorted-list model. A push
   lands at or after the cursor (the last popped tick), including at
   cursor + 1 after a peek saw a later minimum — the end-of-tick flush
   case — and up to 400 000 ticks out, which wraps the ring. Aged seqs
   stand for wire re-injections and chooser re-pushes. *)
let prop_queue_interleaved =
  QCheck.Test.make ~name:"interleaved ops match the oracle"
    ~count:150
    QCheck.(
      make
        ~print:(fun ops -> String.concat " " (List.map show_queue_op ops))
        Gen.(list_size (int_bound 300) gen_queue_op))
    (fun ops ->
      let q = Tick_queue.create () in
      let model = ref [] (* (tick, seq, id), sorted *) in
      let cursor = ref 0 and pushes = ref 0 in
      let key (t, s, i) = (t, s, i) in
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (function
          | Push (d, age) ->
              let tick = !cursor + d and seq = max 0 (!pushes - age) in
              let e = (tick, seq, !pushes) in
              incr pushes;
              Tick_queue.push q ~tick ~seq ~target:(!pushes - 1) e;
              model := List.merge (fun a b -> compare (key a) (key b)) [ e ] !model
          | Peek -> (
              match !model with
              | [] -> check (Tick_queue.is_empty q)
              | (t, s, i) :: _ ->
                  check (Tick_queue.min_tick q = t);
                  check (Tick_queue.min_seq q = s);
                  check (Tick_queue.min_target q = i))
          | Pop -> (
              match !model with
              | [] -> check (Tick_queue.is_empty q)
              | ((t, _, _) as e) :: rest ->
                  check (Tick_queue.pop_exn q = e);
                  model := rest;
                  cursor := t))
        ops;
      let seen = ref [] in
      Tick_queue.iter q (fun ~tick ~seq ~target e ->
          let t, s, i = e in
          check (t = tick && s = seq && i = target);
          seen := e :: !seen);
      check (List.rev !seen = !model);
      check (Tick_queue.size q = List.length !model);
      check (drain q = !model);
      !ok)

(* --- Engine --- *)

let test_engine_delivery () =
  let engine = Engine.create ~n:2 ~policy:Network.instant () in
  let got = ref [] in
  Engine.set_party engine 1 (fun ev ->
      match ev with
      | Engine.Deliver { src; msg } -> got := (src, msg) :: !got
      | Engine.Timer _ -> ());
  Engine.send engine ~src:0 ~dst:1 "hello";
  Engine.run engine;
  Alcotest.(check (list (pair int string))) "delivered" [ (0, "hello") ] !got

let test_engine_fifo_per_tick () =
  (* same delays: delivery order = send order (sequence tie-break) *)
  let engine = Engine.create ~n:2 ~policy:Network.instant () in
  let got = ref [] in
  Engine.set_party engine 1 (fun ev ->
      match ev with
      | Engine.Deliver { msg; _ } -> got := msg :: !got
      | Engine.Timer _ -> ());
  List.iter (fun m -> Engine.send engine ~src:0 ~dst:1 m) [ "a"; "b"; "c" ];
  Engine.run engine;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !got)

let test_engine_timer () =
  let engine = Engine.create ~n:1 ~policy:Network.instant () in
  let fired = ref [] in
  Engine.set_party engine 0 (fun ev ->
      match ev with
      | Engine.Timer tag -> fired := (tag, Engine.now engine) :: !fired
      | Engine.Deliver _ -> ());
  Engine.set_timer engine ~party:0 ~at:10 ~tag:1;
  Engine.set_timer engine ~party:0 ~at:5 ~tag:2;
  Engine.run engine;
  Alcotest.(check (list (pair int int))) "timers in time order"
    [ (2, 5); (1, 10) ]
    (List.rev !fired)

let test_engine_broadcast_and_stats () =
  let engine =
    Engine.create ~n:3 ~size_of:String.length ~policy:Network.instant ()
  in
  let count = ref 0 in
  for i = 0 to 2 do
    Engine.set_party engine i (fun ev ->
        match ev with Engine.Deliver _ -> incr count | Engine.Timer _ -> ())
  done;
  Engine.broadcast engine ~src:0 "xyz";
  Engine.run engine;
  let s = Engine.stats engine in
  Alcotest.(check int) "deliveries incl self" 3 !count;
  Alcotest.(check int) "messages" 3 s.Engine.messages_sent;
  Alcotest.(check int) "bytes" 9 s.Engine.bytes_sent

let test_engine_crash () =
  let engine = Engine.create ~n:2 ~policy:Network.instant () in
  let got = ref 0 in
  Engine.set_party engine 1 (fun _ -> incr got);
  Engine.clear_party engine 1;
  Engine.send engine ~src:0 ~dst:1 "dropped";
  Engine.run engine;
  Alcotest.(check int) "nothing handled" 0 !got

let test_engine_until () =
  let engine = Engine.create ~n:1 ~policy:Network.instant () in
  let fired = ref 0 in
  Engine.set_party engine 0 (fun _ -> incr fired);
  Engine.set_timer engine ~party:0 ~at:5 ~tag:0;
  Engine.set_timer engine ~party:0 ~at:50 ~tag:0;
  Engine.run ~until:10 engine;
  Alcotest.(check int) "only first" 1 !fired;
  Alcotest.(check bool) "queue not drained" false (Engine.quiescent engine);
  Engine.run engine;
  Alcotest.(check int) "rest after" 2 !fired

let test_engine_max_events_exact () =
  (* a run needing exactly [max_events] events succeeds; one more event in
     the queue raises without popping it (counter and clock stay put) *)
  let mk k =
    let engine = Engine.create ~n:1 ~policy:Network.instant () in
    Engine.set_party engine 0 (fun _ -> ());
    for i = 1 to k do
      Engine.set_timer engine ~party:0 ~at:i ~tag:i
    done;
    engine
  in
  let engine = mk 5 in
  Engine.run ~max_events:5 engine;
  Alcotest.(check int) "exactly the budget" 5
    (Engine.stats engine).Engine.events_processed;
  let engine = mk 6 in
  Alcotest.check_raises "budget + 1 raises"
    (Failure "Engine.run: max_events exceeded (run-away protocol?)")
    (fun () -> Engine.run ~max_events:5 engine);
  let s = Engine.stats engine in
  Alcotest.(check int) "counter stopped at the budget" 5
    s.Engine.events_processed;
  Alcotest.(check int) "clock not past the budgeted events" 5 s.Engine.final_time

let test_engine_budget_stop () =
  (* ~on_budget:`Stop turns budget exhaustion into a structured stop
     instead of an exception, at exactly the same point, and the engine
     stays resumable *)
  let engine = Engine.create ~n:1 ~policy:Network.instant () in
  Engine.set_party engine 0 (fun _ -> ());
  for i = 1 to 8 do
    Engine.set_timer engine ~party:0 ~at:i ~tag:i
  done;
  Engine.run ~max_events:5 ~on_budget:`Stop engine;
  Alcotest.(check bool) "stopped on the budget" true
    (Engine.stop_reason engine = `Event_budget);
  Alcotest.(check int) "counter at the budget" 5
    (Engine.stats engine).Engine.events_processed;
  Engine.run engine;
  Alcotest.(check bool) "resumed to quiescence" true
    (Engine.stop_reason engine = `Quiescent);
  Alcotest.(check int) "rest processed" 8
    (Engine.stats engine).Engine.events_processed

let test_engine_cancellation () =
  (* ?should_stop is polled every [stop_poll_mask + 1] events; a true
     verdict unwinds the run cleanly with stop_reason `Cancelled *)
  let engine = Engine.create ~n:1 ~policy:Network.instant () in
  Engine.set_party engine 0 (fun _ -> ());
  for i = 1 to 200 do
    Engine.set_timer engine ~party:0 ~at:i ~tag:i
  done;
  let polls = ref 0 in
  Engine.run
    ~should_stop:(fun () ->
      incr polls;
      (Engine.stats engine).Engine.events_processed >= 64)
    engine;
  Alcotest.(check bool) "cancelled" true (Engine.stop_reason engine = `Cancelled);
  Alcotest.(check int) "stopped at the first poll past the flag" 64
    (Engine.stats engine).Engine.events_processed;
  Alcotest.(check bool) "polling is sparse, not per-event" true (!polls <= 3);
  (* cancellation leaves the queue intact: a later run drains it *)
  Engine.run engine;
  Alcotest.(check int) "drained after cancellation" 200
    (Engine.stats engine).Engine.events_processed;
  Alcotest.(check bool) "quiescent" true (Engine.stop_reason engine = `Quiescent)

let test_engine_determinism () =
  let run_once () =
    let engine =
      Engine.create ~seed:9L ~n:3 ~policy:(Network.sync_uniform ~delta:7) ()
    in
    let log = ref [] in
    for i = 0 to 2 do
      Engine.set_party engine i (fun ev ->
          match ev with
          | Engine.Deliver { src; msg } ->
              log := (Engine.now engine, i, src, msg) :: !log
          | Engine.Timer _ -> ())
    done;
    for s = 0 to 2 do
      Engine.broadcast engine ~src:s (string_of_int s)
    done;
    Engine.run engine;
    !log
  in
  Alcotest.(check bool) "identical logs" true (run_once () = run_once ())

let test_engine_tracer () =
  let engine = Engine.create ~n:2 ~policy:Network.instant () in
  let sends = ref 0 and delivers = ref 0 and timers = ref 0 in
  Engine.set_tracer engine (function
    | Engine.Sent { deliver_at; at; _ } ->
        incr sends;
        Alcotest.(check bool) "deliver after send" true (deliver_at > at)
    | Engine.Delivered _ -> incr delivers
    | Engine.Timer_fired { tag; _ } ->
        incr timers;
        Alcotest.(check int) "tag" 5 tag
    | Engine.Party_failed _ -> ());
  Engine.set_party engine 1 (fun _ -> ());
  Engine.send engine ~src:0 ~dst:1 "x";
  Engine.set_timer engine ~party:1 ~at:3 ~tag:5;
  Engine.run engine;
  Alcotest.(check int) "sends" 1 !sends;
  Alcotest.(check int) "delivers" 1 !delivers;
  Alcotest.(check int) "timers" 1 !timers;
  (* clearing stops tracing *)
  Engine.clear_tracer engine;
  Engine.send engine ~src:0 ~dst:1 "y";
  Engine.run engine;
  Alcotest.(check int) "no more trace events" 1 !sends

let test_engine_fail_fast_default () =
  (* the default isolation mode lets handler exceptions abort the run *)
  let engine = Engine.create ~n:1 ~policy:Network.instant () in
  Engine.set_party engine 0 (fun _ -> failwith "boom");
  Engine.set_timer engine ~party:0 ~at:1 ~tag:0;
  (match Engine.run engine with
  | () -> Alcotest.fail "expected the handler exception to propagate"
  | exception Failure m -> Alcotest.(check string) "propagated" "boom" m);
  Alcotest.(check int) "nothing recorded under fail-fast" 0
    (Engine.stats engine).Engine.party_failures

let test_engine_isolation () =
  let engine = Engine.create ~n:2 ~policy:Network.instant () in
  Engine.set_isolation engine `Isolate;
  let traced = ref [] in
  Engine.set_tracer engine (function
    | Engine.Party_failed f -> traced := f :: !traced
    | _ -> ());
  let p0 = ref 0 in
  Engine.set_party engine 0 (fun _ -> incr p0);
  Engine.set_party engine 1 (fun _ -> failwith "handler bug");
  Engine.send engine ~src:0 ~dst:1 "a" (* kills party 1 *);
  Engine.send engine ~src:1 ~dst:0 "b" (* still delivered *);
  Engine.send engine ~src:0 ~dst:1 "c" (* dropped: party 1 is cleared *);
  Engine.run engine;
  Alcotest.(check int) "run continued past the failure" 1 !p0;
  Alcotest.(check int) "stats counter" 1
    (Engine.stats engine).Engine.party_failures;
  (match Engine.failures engine with
  | [ f ] ->
      Alcotest.(check int) "failed party" 1 f.Engine.party;
      Alcotest.(check bool) "reason captured" true
        (String.length f.Engine.reason > 0)
  | l -> Alcotest.failf "recorded %d failures, expected 1" (List.length l));
  match !traced with
  | [ t ] -> Alcotest.(check int) "traced party" 1 t.Engine.party
  | l -> Alcotest.failf "traced %d failures, expected 1" (List.length l)

let test_engine_wrap_party () =
  let engine = Engine.create ~n:2 ~policy:Network.instant () in
  let got = ref [] in
  Engine.set_party engine 1 (fun ev ->
      match ev with
      | Engine.Deliver { msg; _ } -> got := msg :: !got
      | Engine.Timer _ -> ());
  (* replay every delivery once, as the chaos Duplicate atom does *)
  Engine.wrap_party engine 1 (fun inner ev ->
      inner ev;
      match ev with Engine.Deliver _ -> inner ev | Engine.Timer _ -> ());
  Engine.send engine ~src:0 ~dst:1 "x";
  Engine.run engine;
  Alcotest.(check (list string)) "handler saw the replay" [ "x"; "x" ]
    (List.rev !got);
  Alcotest.check_raises "bad party"
    (Invalid_argument "Engine.wrap_party: bad party") (fun () ->
      Engine.wrap_party engine 7 (fun inner -> inner))

let test_engine_flush_below_peek () =
  (* the loop peeks tick 50, then the end-of-tick flush of tick 0 sends
     at tick 1, below that peek: the flushed message must fire first *)
  let engine = Engine.create ~n:1 ~policy:Network.instant () in
  let log = ref [] in
  Engine.set_party engine 0 (fun ev ->
      match ev with
      | Engine.Deliver { msg; _ } -> log := (msg, Engine.now engine) :: !log
      | Engine.Timer tag -> log := (string_of_int tag, Engine.now engine) :: !log);
  let flushed = ref false in
  Engine.set_flusher engine 0 (fun ~final:_ ->
      if not !flushed then begin
        flushed := true;
        Engine.send engine ~src:0 ~dst:0 "flushed"
      end);
  Engine.set_timer engine ~party:0 ~at:0 ~tag:0;
  Engine.set_timer engine ~party:0 ~at:50 ~tag:50;
  Engine.run engine;
  Alcotest.(check (list (pair string int)))
    "flushed send before the peeked tick"
    [ ("0", 0); ("flushed", 1); ("50", 50) ]
    (List.rev !log)

let test_engine_until_then_timer () =
  (* a [`Past_until] stop with a pending span past 100 000 ticks, then a
     timer below the peeked minimum and a second run *)
  let engine = Engine.create ~n:1 ~policy:Network.instant () in
  let fired = ref [] in
  Engine.set_party engine 0 (fun ev ->
      match ev with
      | Engine.Timer tag -> fired := (tag, Engine.now engine) :: !fired
      | Engine.Deliver _ -> ());
  Engine.set_timer engine ~party:0 ~at:5 ~tag:1;
  Engine.set_timer engine ~party:0 ~at:100_050 ~tag:3;
  Engine.run ~until:10 engine;
  Alcotest.(check bool) "stopped past until" true
    (Engine.stop_reason engine = `Past_until);
  Engine.set_timer engine ~party:0 ~at:7 ~tag:2;
  Engine.run engine;
  Alcotest.(check (list (pair int int)))
    "all timers in tick order"
    [ (1, 5); (2, 7); (3, 100_050) ]
    (List.rev !fired)

let test_engine_inject_out_of_order () =
  (* a wire that re-injects its messages newest first must not change the
     order in which the engine delivers them *)
  let run ~wire =
    let engine = Engine.create ~n:2 ~policy:(Network.lockstep ~delta:3) () in
    let got = ref [] in
    Engine.set_party engine 1 (fun ev ->
        match ev with
        | Engine.Deliver { msg; _ } -> got := (msg, Engine.now engine) :: !got
        | Engine.Timer _ -> ());
    Engine.set_party engine 0 (fun _ -> ());
    if wire then begin
      let held = ref [] in
      Engine.set_wire engine
        {
          Engine.wire_send =
            (fun ~src ~dst ~seq ~deliver_at msg ->
              held := (src, dst, seq, deliver_at, msg) :: !held);
          wire_pump =
            (fun () ->
              let batch = !held in
              held := [];
              List.iter
                (fun (src, dst, seq, deliver_at, msg) ->
                  Engine.inject engine ~src ~dst ~seq ~deliver_at msg)
                batch;
              batch <> []);
        }
    end;
    (* a timer at the delivery tick, pushed after the sends: it must
       still fire after them *)
    List.iter (fun m -> Engine.send engine ~src:0 ~dst:1 m) [ "a"; "b"; "c" ];
    Engine.set_timer engine ~party:0 ~at:3 ~tag:0;
    Engine.run engine;
    List.rev !got
  in
  Alcotest.(check (list (pair string int)))
    "wire order = direct order" (run ~wire:false) (run ~wire:true);
  Alcotest.(check (list string)) "send order" [ "a"; "b"; "c" ]
    (List.map fst (run ~wire:true))

let test_engine_chooser_repush () =
  (* a chooser that always takes the last candidate reverses one tick;
     the re-pushed rest keeps its seq order, and [pending] reads the
     queue in (tick, seq) order *)
  let engine = Engine.create ~n:2 ~policy:Network.instant () in
  let got = ref [] in
  Engine.set_party engine 1 (fun ev ->
      match ev with
      | Engine.Deliver { msg; _ } -> got := msg :: !got
      | Engine.Timer _ -> ());
  List.iter (fun m -> Engine.send engine ~src:0 ~dst:1 m) [ "a"; "b"; "c" ];
  Engine.set_timer engine ~party:1 ~at:9 ~tag:0;
  let seqs = List.map (fun c -> (c.Engine.ch_at, c.Engine.ch_seq)) (Engine.pending engine) in
  Alcotest.(check (list (pair int int))) "pending sorted" (List.sort compare seqs) seqs;
  Engine.set_chooser engine (fun cands ->
      let seqs = Array.map (fun c -> c.Engine.ch_seq) cands in
      let sorted = Array.copy seqs in
      Array.sort compare sorted;
      Alcotest.(check (array int)) "candidates in seq order" sorted seqs;
      Array.length cands - 1);
  Engine.run engine;
  Alcotest.(check (list string)) "reversed" [ "c"; "b"; "a" ] (List.rev !got)

(* --- policies --- *)

let check_policy_range name policy lo hi =
  let rng = Rng.create 11L in
  for now = 0 to 50 do
    for src = 0 to 3 do
      for dst = 0 to 3 do
        let d = policy ~rng ~now ~src ~dst in
        if not (d >= lo && d <= hi) then
          Alcotest.failf "%s: delay %d outside [%d, %d]" name d lo hi
      done
    done
  done

let test_policies_sync_bound () =
  check_policy_range "lockstep" (Network.lockstep ~delta:10) 10 10;
  check_policy_range "sync_uniform" (Network.sync_uniform ~delta:10) 1 10;
  check_policy_range "rushing"
    (Network.rushing ~delta:10 ~corrupt:(fun i -> i = 0))
    1 10;
  check_policy_range "targeted_slow"
    (Network.targeted_slow ~delta:10 ~victims:(fun i -> i = 1))
    1 10

let test_policy_rushing_bias () =
  let rng = Rng.create 1L in
  let p = Network.rushing ~delta:10 ~corrupt:(fun i -> i = 0) in
  Alcotest.(check int) "corrupt fast" 1 (p ~rng ~now:0 ~src:0 ~dst:1);
  Alcotest.(check int) "honest slow" 10 (p ~rng ~now:0 ~src:1 ~dst:0)

let test_policy_starve () =
  let rng = Rng.create 1L in
  let p =
    Network.async_starve ~victims:(fun i -> i = 2) ~release:100 ~fast:3
  in
  let d = p ~rng ~now:0 ~src:2 ~dst:0 in
  Alcotest.(check bool) "victim held" true (d >= 100);
  let d = p ~rng ~now:0 ~src:0 ~dst:1 in
  Alcotest.(check bool) "others fast" true (d <= 3);
  let d = p ~rng ~now:200 ~src:2 ~dst:0 in
  Alcotest.(check bool) "after release fast" true (d <= 4)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "coverage" `Quick test_rng_coverage;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "pop_exn" `Quick test_heap_pop_exn;
          Alcotest.test_case "span past 100k ticks" `Quick test_queue_wide_span;
          Alcotest.test_case "steady state allocates nothing" `Quick
            test_queue_no_alloc;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delivery" `Quick test_engine_delivery;
          Alcotest.test_case "fifo per tick" `Quick test_engine_fifo_per_tick;
          Alcotest.test_case "timer" `Quick test_engine_timer;
          Alcotest.test_case "broadcast + stats" `Quick
            test_engine_broadcast_and_stats;
          Alcotest.test_case "crash" `Quick test_engine_crash;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "max_events exact" `Quick
            test_engine_max_events_exact;
          Alcotest.test_case "budget stop (structured)" `Quick
            test_engine_budget_stop;
          Alcotest.test_case "cooperative cancellation" `Quick
            test_engine_cancellation;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "tracer" `Quick test_engine_tracer;
          Alcotest.test_case "fail fast default" `Quick
            test_engine_fail_fast_default;
          Alcotest.test_case "isolation" `Quick test_engine_isolation;
          Alcotest.test_case "wrap_party" `Quick test_engine_wrap_party;
          Alcotest.test_case "flush below a peeked tick" `Quick
            test_engine_flush_below_peek;
          Alcotest.test_case "until, timer, run again" `Quick
            test_engine_until_then_timer;
          Alcotest.test_case "inject out of seq order" `Quick
            test_engine_inject_out_of_order;
          Alcotest.test_case "chooser re-push" `Quick test_engine_chooser_repush;
        ] );
      ( "policies",
        [
          Alcotest.test_case "sync bounds" `Quick test_policies_sync_bound;
          Alcotest.test_case "rushing bias" `Quick test_policy_rushing_bias;
          Alcotest.test_case "starvation" `Quick test_policy_starve;
        ] );
      ("heap properties", q [ prop_heap; prop_queue_interleaved ]);
    ]
