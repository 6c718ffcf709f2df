(* Unit tests for the Intern hash-consing table, plus the differential
   guarantee the interned message layer is built on: [Rbc] and [Obc]
   invoke their callbacks exactly as the seed vote tables in the
   [oracle] library do — on the rBC traffic of real runs and on random
   call sequences. The interned tables change representation, never
   behaviour. *)

let vec l = Vec.of_list l

(* --- Intern unit tests --- *)

let test_intern_basic () =
  let t = Intern.create () in
  let p1 = Message.Pvec (vec [ 1.; 2. ]) in
  let p2 = Message.Pvec (vec [ 1.; 2. ]) in
  let p3 = Message.Pvec (vec [ 1.; 3. ]) in
  let id1 = Intern.intern t p1 in
  Alcotest.(check int) "ids are dense from 0" 0 id1;
  Alcotest.(check int) "equal payload, same id" id1 (Intern.intern t p2);
  Alcotest.(check bool)
    "distinct payload, distinct id" true
    (Intern.intern t p3 <> id1);
  Alcotest.(check int) "count" 2 (Intern.count t);
  Alcotest.(check bool)
    "canonical representative is the first seen" true
    (Intern.payload t id1 == p1);
  Alcotest.(check bool)
    "intern_payload canonicalizes" true
    (Intern.intern_payload t p2 == p1);
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Intern.payload: bad id") (fun () ->
      ignore (Intern.payload t 99))

let test_intern_constructors () =
  let t = Intern.create () in
  let payloads =
    [
      Message.Pint 3;
      Message.Pvec (vec [ 3. ]);
      Message.Pparties [ 3 ];
      Message.Ppairs [ (3, vec [ 3. ]) ];
      Message.Ppairs [ (3, vec [ 3. ]); (4, vec [ 1.; 2. ]) ];
      Message.Pparties [];
      Message.Ppairs [];
    ]
  in
  let ids = List.map (Intern.intern t) payloads in
  Alcotest.(check int)
    "all constructors distinct"
    (List.length payloads)
    (List.length (List.sort_uniq compare ids));
  (* id partition = Stdlib.compare partition, on re-interning *)
  List.iter2
    (fun p id -> Alcotest.(check int) "stable on re-intern" id (Intern.intern t p))
    payloads ids

(* The partition guarantee under NaN: [Stdlib.compare] calls any two NaNs
   equal, so the interner must give every NaN-bearing-but-otherwise-equal
   vector one id — even when the NaNs have different bit patterns. *)
let test_intern_nan () =
  let t = Intern.create () in
  let quiet = Float.nan in
  let computed = 0. /. 0. in
  (* different bit pattern on most platforms *)
  let a = Intern.intern t (Message.Pvec (vec [ quiet; 1. ])) in
  let b = Intern.intern t (Message.Pvec (vec [ computed; 1. ])) in
  Alcotest.(check int) "NaN payloads share an id" a b;
  Alcotest.(check int)
    "matching Stdlib.compare" 0
    (compare [| quiet; 1. |] [| computed; 1. |]);
  let c = Intern.intern t (Message.Pvec (vec [ 1.; quiet ])) in
  Alcotest.(check bool) "NaN position still matters" true (a <> c)

let test_intern_collision_chains () =
  (* fixed one-bucket table: every payload hash-collides, correctness
     must come from the equality chain walk alone *)
  let t = Intern.create ~fixed:true ~initial_size:1 () in
  let payloads =
    List.init 64 (fun i -> Message.Pvec (vec [ float_of_int i; 0.5 ]))
  in
  let ids = List.map (Intern.intern t) payloads in
  Alcotest.(check (list int)) "dense ids in order" (List.init 64 Fun.id) ids;
  Alcotest.(check (list int))
    "chain lookups still hit" ids
    (List.map (Intern.intern t) payloads);
  Alcotest.(check int) "count" 64 (Intern.count t);
  List.iter2
    (fun p id ->
      Alcotest.(check bool) "payload round-trip" true (Intern.payload t id == p))
    payloads ids

let test_intern_reset () =
  let t = Intern.create () in
  let p = Message.Pint 7 in
  let id = Intern.intern t p in
  Intern.reset t;
  Alcotest.(check int) "count back to 0" 0 (Intern.count t);
  Alcotest.check_raises "old ids are gone"
    (Invalid_argument "Intern.payload: bad id") (fun () ->
      ignore (Intern.payload t id));
  Alcotest.(check int) "ids restart at 0" 0 (Intern.intern t (Message.Pint 9));
  Alcotest.(check int) "fresh table semantics" 1 (Intern.intern t p)

(* --- module-level differentials against the seed vote tables --- *)

(* Every callback a vote table makes, in call order. Logs are compared
   with [compare], whose partition of payloads (Float.compare per
   coordinate: ±0 and all NaNs each one class) is the one the seed
   tables key on and the intern table reproduces. *)
type rbc_effect =
  | Rbc_send of Message.t
  | Rbc_deliver of Message.rbc_id * Message.payload

let rbc_callbacks log =
  {
    Rbc.send_all = (fun m -> log := Rbc_send m :: !log);
    deliver = (fun id p -> log := Rbc_deliver (id, p) :: !log);
  }

(* A production [Rbc.t] and an [Oracle.Rbc.t] side by side, each with
   its own effect log. *)
type rbc_pair = {
  fast : Rbc.t;
  seed : Oracle.Rbc.t;
  fast_log : rbc_effect list ref;
  seed_log : rbc_effect list ref;
}

let rbc_pair ~n ~t =
  let fast_log = ref [] and seed_log = ref [] in
  {
    fast = Rbc.create ~n ~t (rbc_callbacks fast_log);
    seed = Oracle.Rbc.create ~n ~t (rbc_callbacks seed_log);
    fast_log;
    seed_log;
  }

let rbc_feed p ~from id step v =
  Rbc.on_message p.fast ~from id step v;
  Oracle.Rbc.on_message p.seed ~from id step v

let rbc_agree p ids =
  compare !(p.fast_log) !(p.seed_log) = 0
  && List.for_all
       (fun id ->
         compare (Rbc.delivered p.fast id) (Oracle.Rbc.delivered p.seed id) = 0)
       ids

(* Same grid shape as test_pool.ml: D 1..3, sync and async networks, a
   silent crash and an out-of-hull poisoner. *)
let grid () =
  let poison d = Behavior.Honest_with_input (Vec.make d 50.) in
  List.concat_map
    (fun (d, n, ts, ta) ->
      let cfg = Config.make_exn ~n ~ts ~ta ~d ~eps:0.1 ~delta:10 in
      let inputs =
        List.init n (fun i ->
            Vec.of_list (List.init d (fun c -> float_of_int ((i + c) mod 4))))
      in
      List.concat_map
        (fun (pname, policy, sync) ->
          List.map
            (fun (bname, corruptions) ->
              Scenario.make
                ~name:(Printf.sprintf "diff D=%d %s %s" d pname bname)
                ~seed:(Int64.of_int ((d * 131) + n))
                ~cfg ~inputs ~policy ~sync_network:sync ~corruptions ())
            [
              ("silent", [ (0, Behavior.Silent) ]);
              ("poison", [ (0, poison d) ]);
            ])
        [
          ("sync", Network.sync_uniform ~delta:10, true);
          ("async", Network.async_heavy_tail ~base:8, false);
        ])
    [ (1, 4, 1, 0); (2, 5, 1, 1); (3, 5, 1, 0) ]

(* rBC replay: run each grid scenario on both shipped egress paths and
   capture, per honest party, every rBC vote it was delivered — batched
   entries unpacked in order, the poisoner's traffic included. Replaying
   one party's stream into a standalone [Rbc.t] and an [Oracle.Rbc.t]
   must produce the same sends, deliveries and [delivered] answers. *)
let test_rbc_replay () =
  List.iter
    (fun (s : Scenario.t) ->
      List.iter
        (fun layer ->
          let n = s.cfg.Config.n in
          let inbox = Array.make n [] in
          let tracer = function
            | Engine.Delivered { src; dst; msg; _ } -> (
                match msg with
                | Message.Rbc (id, step, v) ->
                    inbox.(dst) <- (src, id, step, v) :: inbox.(dst)
                | Message.Rbc_batch entries ->
                    List.iter
                      (fun (id, step, v) ->
                        inbox.(dst) <- (src, id, step, v) :: inbox.(dst))
                      entries
                | _ -> ())
            | _ -> ()
          in
          let r =
            Runner.run ~tracer { s with Scenario.message_layer = layer }
          in
          let name =
            Printf.sprintf "%s %s" s.name (Soak.layer_to_string layer)
          in
          Alcotest.(check bool) (name ^ ": run live") true r.Runner.live;
          for me = 0 to n - 1 do
            if not (List.mem_assoc me s.corruptions) then begin
              let p = rbc_pair ~n ~t:s.cfg.Config.ts in
              let votes = List.rev inbox.(me) in
              List.iter
                (fun (from, id, step, v) -> rbc_feed p ~from id step v)
                votes;
              let ids =
                List.sort_uniq compare (List.map (fun (_, id, _, _) -> id) votes)
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s: party %d delivered something" name me)
                true
                (List.exists (function Rbc_deliver _ -> true | _ -> false)
                   !(p.seed_log));
              Alcotest.(check bool)
                (Printf.sprintf "%s: party %d replay identical (%d votes)" name
                   me (List.length votes))
                true (rbc_agree p ids)
            end
          done)
        [ `Interned; `Batched ])
    (grid ())

(* rBC property: random call sequences on one multiplexer — several
   instances, origins that equivocate, Init from non-origins, duplicate
   votes and senders outside [0, n). Compared after every call. *)
type rbc_call =
  | Broadcast of int * int  (* instance, payload *)
  | Vote of int * int * Message.step * int  (* from, instance, step, payload *)

let rbc_payloads =
  [|
    Message.Pvec (vec [ 0.; 1. ]);
    Message.Pvec (vec [ -0.; 1. ]);
    Message.Pvec (vec [ 2.; Float.nan ]);
    Message.Pint 5;
  |]

let rbc_ids n =
  [|
    { Message.tag = Message.Init_value; origin = 0 };
    { Message.tag = Message.Obc_value 1; origin = n - 1 };
    { Message.tag = Message.Halt 2; origin = 1 };
  |]

let step_name = function
  | Message.Init -> "init"
  | Message.Echo -> "echo"
  | Message.Ready -> "ready"

let print_rbc_case (n, calls) =
  Printf.sprintf "n=%d [%s]" n
    (String.concat "; "
       (List.map
          (function
            | Broadcast (i, v) -> Printf.sprintf "bcast#%d v%d" i v
            | Vote (from, i, st, v) ->
                Printf.sprintf "%d->#%d %s v%d" from i (step_name st) v)
          calls))

let gen_rbc_case =
  QCheck.Gen.(
    int_range 4 7 >>= fun n ->
    let ids = Array.length (rbc_ids n) and vs = Array.length rbc_payloads in
    let call =
      frequency
        [
          (1, map2 (fun i v -> Broadcast (i, v)) (int_bound (ids - 1))
                (int_bound (vs - 1)));
          ( 12,
            map3
              (fun (from, i) st v -> Vote (from, i, st, v))
              (pair (int_range (-2) (n + 1)) (int_bound (ids - 1)))
              (frequencyl
                 [ (1, Message.Init); (4, Message.Echo); (4, Message.Ready) ])
              (frequency [ (6, return 0); (1, int_bound (vs - 1)) ]) );
        ]
    in
    list_size (int_range 0 120) call >|= fun calls -> (n, calls))

let prop_rbc_matches_seed =
  QCheck.Test.make ~name:"rbc property: random call sequences"
    ~count:300
    (QCheck.make ~print:print_rbc_case gen_rbc_case)
    (fun (n, calls) ->
      let ids = rbc_ids n in
      let p = rbc_pair ~n ~t:((n - 1) / 3) in
      List.for_all
        (fun call ->
          (match call with
          | Broadcast (i, v) ->
              Rbc.broadcast p.fast ids.(i) rbc_payloads.(v);
              Oracle.Rbc.broadcast p.seed ids.(i) rbc_payloads.(v)
          | Vote (from, i, st, v) ->
              rbc_feed p ~from ids.(i) st rbc_payloads.(v));
          rbc_agree p (Array.to_list ids))
        calls)

(* oBC property: random interleavings of start, delivered values,
   reports (verifiable or not) and pokes under a stepped clock, both
   witnessing settings. Every callback and [has_output] compared after
   every call. *)
type obc_effect =
  | Obc_timer of int
  | Obc_rbc of Message.payload
  | Obc_send of Message.t
  | Obc_output of (int * Vec.t) list

type obc_call =
  | Start of int
  | Value of int * int  (* origin, vector *)
  | Report of int * (int * int) list  (* sender, (party, vector) pairs *)
  | Poke
  | Tick of int

let obc_vecs =
  [| vec [ 0.; 1. ]; vec [ -0.; 1. ]; vec [ 2.; 3. ]; vec [ 4.; Float.nan ] |]

let print_obc_case (n, witnessing, calls) =
  Printf.sprintf "n=%d witnessing=%b [%s]" n witnessing
    (String.concat "; "
       (List.map
          (function
            | Start v -> Printf.sprintf "start v%d" v
            | Value (o, v) -> Printf.sprintf "value %d:v%d" o v
            | Report (f, ps) ->
                Printf.sprintf "report %d {%s}" f
                  (String.concat ","
                     (List.map (fun (p, v) -> Printf.sprintf "%d:v%d" p v) ps))
            | Poke -> "poke"
            | Tick k -> Printf.sprintf "+%d" k)
          calls))

let gen_obc_case =
  QCheck.Gen.(
    int_range 4 7 >>= fun n ->
    bool >>= fun witnessing ->
    let ts = (n - 1) / 3 and nv = Array.length obc_vecs in
    (* party p's honest vector is [p mod 3]; a delivered value or a
       report pair is sometimes any vector, so reports verify often and
       fail sometimes *)
    let vec_of ~odds p =
      frequency [ (odds, return (abs p mod 3)); (1, int_bound (nv - 1)) ]
    in
    let party = int_range (-1) n in
    let call =
      frequency
        [
          (1, map (fun v -> Start v) (int_bound (nv - 1)));
          (6, party >>= fun o -> vec_of ~odds:11 o >|= fun v -> Value (o, v));
          ( 1,
            pair party (list_size (int_range 0 (n + 1)) party)
            >>= fun (f, ps) ->
            flatten_l
              (List.map (fun p -> vec_of ~odds:5 p >|= fun v -> (p, v)) ps)
            >|= fun pairs -> Report (f, pairs) );
          (* an honest report: every party's honest value, the first
             [drop] parties left out — too small to verify if [drop > ts] *)
          ( 4,
            pair party (frequency [ (3, int_bound ts); (1, int_bound n) ])
            >|= fun (f, drop) ->
            Report
              (f, List.filter (fun (p, _) -> p >= drop)
                    (List.init n (fun p -> (p, p mod 3)))) );
          (2, return Poke);
          (3, map (fun k -> Tick k) (int_bound 2));
        ]
    in
    (* start early in most cases, so the deadlines fall inside the run;
       the [Start] calls above exercise the repeated-start error *)
    list_size (int_range 0 120) call >>= fun calls ->
    int_bound (List.length calls / 3) >>= fun at ->
    int_bound (nv - 1) >>= fun v ->
    frequency [ (9, return true); (1, return false) ] >|= fun early ->
    let insert i c = if early && i = at then [ Start v; c ] else [ c ] in
    (n, witnessing, List.concat (List.mapi insert calls)))

let prop_obc_matches_seed =
  QCheck.Test.make ~name:"obc property: random interleavings"
    ~count:400
    (QCheck.make ~print:print_obc_case gen_obc_case)
    (fun (n, witnessing, calls) ->
      let ts = (n - 1) / 3 and delta = 1 and now = ref 0 in
      let callbacks log =
        {
          Obc.now = (fun () -> !now);
          set_timer = (fun ~at -> log := Obc_timer at :: !log);
          rbc_broadcast = (fun v -> log := Obc_rbc v :: !log);
          send_all = (fun m -> log := Obc_send m :: !log);
          output = (fun m -> log := Obc_output (Pairset.bindings m) :: !log);
        }
      in
      let fast_log = ref [] and seed_log = ref [] in
      let fast =
        Obc.create ~witnessing ~n ~ts ~delta ~iter:1 (callbacks fast_log)
      and seed =
        Oracle.Obc.create ~witnessing ~n ~ts ~delta ~iter:1
          (callbacks seed_log)
      in
      let outcome f = match f () with () -> None | exception e -> Some e in
      List.for_all
        (fun call ->
          let same_outcome =
            match call with
            | Start v ->
                outcome (fun () -> Obc.start fast obc_vecs.(v))
                = outcome (fun () -> Oracle.Obc.start seed obc_vecs.(v))
            | Value (origin, v) ->
                Obc.on_value fast ~origin obc_vecs.(v);
                Oracle.Obc.on_value seed ~origin obc_vecs.(v);
                true
            | Report (from, ps) ->
                let pairs = List.map (fun (p, v) -> (p, obc_vecs.(v))) ps in
                Obc.on_report fast ~from pairs;
                Oracle.Obc.on_report seed ~from pairs;
                true
            | Poke ->
                Obc.poke fast;
                Oracle.Obc.poke seed;
                true
            | Tick k ->
                now := !now + k;
                true
          in
          same_outcome
          && compare !fast_log !seed_log = 0
          && Obc.has_output fast = Oracle.Obc.has_output seed)
        calls)

let () =
  Alcotest.run "intern"
    [
      ( "intern table",
        [
          Alcotest.test_case "basic interning" `Quick test_intern_basic;
          Alcotest.test_case "constructor coverage" `Quick
            test_intern_constructors;
          Alcotest.test_case "NaN partition" `Quick test_intern_nan;
          Alcotest.test_case "forced collision chains" `Quick
            test_intern_collision_chains;
          Alcotest.test_case "reset" `Quick test_intern_reset;
        ] );
      ( "differential",
        Alcotest.test_case "rbc replay: scenario grid" `Quick
          test_rbc_replay
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_rbc_matches_seed; prop_obc_matches_seed ] );
    ]
