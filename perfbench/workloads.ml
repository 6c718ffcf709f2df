(* Workload inputs, generated from the workload seed alone: the same seed
   gives the same scenarios, request lines and connection schedule. Every
   library knob (message layer, update kernel, batch window) is left at
   its default, so a change of default is measured on the path that
   ships. *)

(* -- closed-loop simulated ΠAA runs ------------------------------------- *)

type sim = {
  name : string;
  n : int;
  d : int;
  ts : int;
  ta : int;
  eps : float;
  delta : int;
  policy : Engine.delay_policy;
  sync : bool;
}

let sync_d3 =
  {
    name = "sync-d3";
    n = 10;
    d = 3;
    ts = 2;
    ta = 1;
    eps = 0.05;
    delta = 10;
    policy = Network.lockstep ~delta:10;
    sync = true;
  }

let async_d2 =
  {
    name = "async-d2";
    n = 8;
    d = 2;
    ts = 2;
    ta = 1;
    eps = 0.05;
    delta = 10;
    policy = Network.async_heavy_tail ~base:10;
    sync = false;
  }

(* The last party is Byzantine: it runs the protocol honestly on an
   extreme input, the strongest attack that stays inside the protocol. *)
let extreme = 1e4
let side = 10.

let scenario w ~seed =
  let cfg =
    Config.make_exn ~n:w.n ~ts:w.ts ~ta:w.ta ~d:w.d ~eps:w.eps ~delta:w.delta
  in
  let inputs =
    Inputs.uniform_cube (Rng.create (Int64.add seed 1L)) ~d:w.d ~n:w.n ~side
  in
  Scenario.make
    ~name:(Printf.sprintf "%s@%Ld" w.name seed)
    ~seed ~policy:w.policy ~sync_network:w.sync
    ~corruptions:
      [ (w.n - 1, Behavior.Honest_with_input (Vec.make w.d extreme)) ]
    ~cfg ~inputs ()

(* One scenario per run, each with its own seed drawn from the workload
   seed; a run past the end of the pool wraps around to its start. *)
let pool w ~wseed ~size =
  let r = Rng.create wseed in
  Array.init size (fun _ -> scenario w ~seed:(Rng.next_int64 r))

(* -- serve-mix: open-loop connections to the front door ----------------- *)

type kind = Small | Mid | Net

(* ~80% n=4 D=1 sim, ~15% n=7 D=2 ts=2 sim, ~5% n=4 D=1 over TCP. Single
   requests are drawn as shuffled blocks of 20; every batch of 32 holds
   the same mix, shuffled, so batches differ only in their values. *)
let single_block = List.init 16 (fun _ -> Small) @ [ Mid; Mid; Mid; Net ]
let batch_size = 32

let batch_mix =
  List.init 25 (fun _ -> Small) @ List.init 5 (fun _ -> Mid) @ [ Net; Net ]

let request_line rng kind =
  let coord () = Printf.sprintf "%.4f" (Rng.float01 rng) in
  let point d = String.concat "," (List.init d (fun _ -> coord ())) in
  let inputs n d = String.concat ";" (List.init n (fun _ -> point d)) in
  let seed = Int64.logand (Rng.next_int64 rng) 0xFFFFFFFFL in
  match kind with
  | Small ->
      Printf.sprintf
        "agree v=1 d=1 eps=0.05 delta=4 ts=1 ta=0 seed=%Ld inputs=%s" seed
        (inputs 4 1)
  | Mid ->
      Printf.sprintf
        "agree v=1 d=2 eps=0.05 delta=4 ts=2 ta=0 seed=%Ld inputs=%s" seed
        (inputs 7 2)
  | Net ->
      Printf.sprintf
        "agree v=1 d=1 eps=0.05 delta=4 ts=1 ta=0 transport=net seed=%Ld \
         inputs=%s"
        seed (inputs 4 1)

(* Connections alternate: one request, then a batch of 32. *)
let mean_requests_per_conn = float_of_int (1 + batch_size) /. 2.

type stream = { rng : Rng.t; mutable singles : kind list; mutable k : int }

let stream ~wseed = { rng = Rng.create wseed; singles = []; k = 0 }

let shuffled rng l =
  let a = Array.of_list l in
  Rng.shuffle rng a;
  Array.to_list a

(* The request lines of the next connection. *)
let next_conn s =
  let batch = s.k mod 2 = 1 in
  s.k <- s.k + 1;
  if batch then List.map (request_line s.rng) (shuffled s.rng batch_mix)
  else begin
    if s.singles = [] then s.singles <- shuffled s.rng single_block;
    match s.singles with
    | k :: rest ->
        s.singles <- rest;
        [ request_line s.rng k ]
    | [] -> assert false
  end
