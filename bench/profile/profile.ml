(* Quick min-of-5 wall-clock probe for the protocol hot paths, outside
   bechamel: message-layer and engine cost in isolation (interned vote
   tables against the seed ones in Oracle.Rbc), plus the two end-to-end
   lines the perf targets are stated against (B6 n=12, B7).
   Run with: dune exec bench/profile/profile.exe *)
let measure n f =
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do ignore (f ()) done;
    let dt = (Unix.gettimeofday () -. t0) /. float_of_int n in
    if dt < !best then best := dt
  done;
  !best

let time label n f =
  Printf.printf "%-40s %12.1f us/run\n%!" label (measure n f *. 1e6)

let protocol message_layer () =
  let cfg = Config.make_exn ~n:12 ~ts:3 ~ta:1 ~d:2 ~eps:0.05 ~delta:10 in
  let inputs =
    List.init 12 (fun i ->
        Vec.of_list (List.init 2 (fun c -> float_of_int ((i + c) mod 4))))
  in
  let o = Maaa.run ~seed:1L ~message_layer ~policy:(Network.lockstep ~delta:10) ~cfg ~inputs () in
  assert (o.Maaa.outputs <> [])

(* [Rbc.create] without its optional [?intern], so it fills the same
   argument slot as [Oracle.Rbc.create]. *)
let rbc_create ~n ~t cb = Rbc.create ~n ~t cb

(* The honest-sender part of [Fixtures.run_rbc] over either vote table:
   seven parties on a lockstep engine, party 0 broadcasting. *)
let rbc create broadcast on_message () =
  let n = 7 in
  let engine =
    Engine.create ~seed:1L ~n ~policy:(Network.lockstep ~delta:10) ()
  in
  let deliveries = ref [] in
  let rbcs =
    Array.init n (fun i ->
        let rbc =
          create ~n ~t:2
            {
              Rbc.send_all = (fun msg -> Engine.broadcast engine ~src:i msg);
              deliver =
                (fun _ payload ->
                  deliveries := (i, payload, Engine.now engine) :: !deliveries);
            }
        in
        Engine.set_party engine i (function
          | Engine.Deliver { src; msg = Message.Rbc (id, step, payload) } ->
              on_message rbc ~from:src id step payload
          | _ -> ());
        rbc)
  in
  broadcast rbcs.(0)
    { Message.tag = Message.Init_value; origin = 0 }
    (Message.Pvec (Vec.of_list [ 1.; 2. ]));
  Engine.run engine;
  assert (List.length !deliveries = n)

let () =
  time "B7 rbc reference" 2000
    (rbc Oracle.Rbc.create Oracle.Rbc.broadcast Oracle.Rbc.on_message);
  time "B7 rbc interned" 2000 (rbc rbc_create Rbc.broadcast Rbc.on_message);
  time "B6 n=12 D=2 batched" 10 (protocol `Batched);
  time "B6 n=12 D=2 interned" 10 (protocol `Interned)

let storm_payload = Message.Pvec (Vec.of_list [ 1.; 2. ])

let engine_churn () =
  let engine = Engine.create ~seed:1L ~n:7 ~policy:(Network.lockstep ~delta:10) () in
  for i = 0 to 6 do Engine.set_party engine i (fun _ -> ()) done;
  let msg = Message.Rbc ({ Message.tag = Message.Init_value; origin = 0 }, Message.Echo, storm_payload) in
  for _ = 1 to 15 do Engine.broadcast engine ~src:0 msg done;
  Engine.run engine

let rbc_only create on_message () =
  let n = 7 and t = 2 in
  let rbcs =
    Array.init n (fun _ ->
        create ~n ~t
          { Rbc.send_all = (fun _ -> ()); deliver = (fun _ _ -> ()) })
  in
  let id = { Message.tag = Message.Init_value; origin = 0 } in
  Array.iter
    (fun rbc ->
      on_message rbc ~from:0 id Message.Init storm_payload;
      for s = 0 to n - 1 do
        on_message rbc ~from:s id Message.Echo storm_payload
      done;
      for s = 0 to n - 1 do
        on_message rbc ~from:s id Message.Ready storm_payload
      done)
    rbcs

let setup_engine () =
  ignore (Engine.create ~seed:1L ~n:7 ~policy:(Network.lockstep ~delta:10) ())

let setup_rbc create () =
  for _ = 1 to 7 do
    ignore
      (create ~n:7 ~t:2
         { Rbc.send_all = (fun _ -> ()); deliver = (fun _ _ -> ()) })
  done

let () =
  time "engine churn 105 msgs, null handlers" 2000 engine_churn;
  time "rbc-only 7 instances, interned" 2000
    (rbc_only rbc_create Rbc.on_message);
  time "rbc-only 7 instances, reference" 2000
    (rbc_only Oracle.Rbc.create Oracle.Rbc.on_message);
  time "setup: Engine.create n=7" 2000 setup_engine;
  time "setup: 7x Rbc.create interned" 2000 (setup_rbc rbc_create);
  time "setup: 7x Rbc.create reference" 2000 (setup_rbc Oracle.Rbc.create)
