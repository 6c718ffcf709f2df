type t =
  | Silent
  | Crash_at of int
  | Honest_with_input of Vec.t
  | Equivocate of Vec.t * Vec.t
  | Equivocate_split of { values : Vec.t * Vec.t; assign : int array }
  | Halt_liar of int
  | Spam of { period : int; payload_bytes : int; until : int }
  | Garbage of int
  | Lagger of int

let equivocate_towards engine ~cfg ~me ~va ~vb ~lied_to =
  let p = Party.attach ~cfg ~me engine in
  Party.start p va;
  List.iter
    (fun tag ->
      for dst = 0 to cfg.Config.n - 1 do
        if lied_to dst then
          Engine.send engine ~src:me ~dst
            (Message.Rbc
               ( { Message.tag; origin = me },
                 Message.Init,
                 Message.Pvec vb ))
      done)
    [ Message.Init_value; Message.Obc_value 1 ]

let install engine ~cfg ~me ~input behavior =
  match behavior with
  | Silent -> Engine.clear_party engine me
  | Honest_with_input v ->
      let p = Party.attach ~cfg ~me engine in
      Party.start p v
  | Crash_at tick ->
      let p =
        Party.create ~cfg ~me
          ~now:(fun () -> Engine.now engine)
          ~send_all:(fun msg -> Engine.broadcast engine ~src:me msg)
          ~set_timer:(fun ~at -> Engine.set_timer engine ~party:me ~at ~tag:0)
          ()
      in
      Engine.set_party engine me (fun ev ->
          if Engine.now engine <= tick then Party.handle p ev);
      Party.start p input
  | Equivocate (va, vb) ->
      (* Honest machinery runs on [va]; at the same instant, conflicting
         Init messages carrying [vb] go to the upper half for the two
         broadcasts of our own where equivocation matters most: the Πinit
         input and the first iteration's ΠoBC value. *)
      equivocate_towards engine ~cfg ~me ~va ~vb ~lied_to:(fun dst ->
          dst >= cfg.Config.n / 2)
  | Equivocate_split { values = va, vb; assign } ->
      (* [Equivocate] with the receiver split chosen per party instead of
         hard-wired to the upper half — the enumerable form the explorer
         sweeps: [assign.(dst) = 1] marks the receivers that get the
         conflicting [vb] Init messages. (The all-zero assignment degrades
         to plain honest-on-[va].) *)
      equivocate_towards engine ~cfg ~me ~va ~vb ~lied_to:(fun dst ->
          dst < Array.length assign && assign.(dst) <> 0)
  | Halt_liar it ->
      let p = Party.attach ~cfg ~me engine in
      Party.start p input;
      Engine.broadcast engine ~src:me
        (Message.Rbc
           ( { Message.tag = Message.Halt it; origin = me },
             Message.Init,
             Message.Pint it ))
  | Spam { period; payload_bytes; until } ->
      (* Periodic junk to every party. Bounded by [until] so that the
         simulation's event queue still drains. *)
      let handler ev =
        match ev with
        | Engine.Timer _ ->
            Engine.broadcast engine ~src:me (Message.Junk payload_bytes);
            let next = Engine.now engine + period in
            if next <= until then
              Engine.set_timer engine ~party:me ~at:next ~tag:0
        | Engine.Deliver _ -> ()
      in
      Engine.set_party engine me handler;
      Engine.set_timer engine ~party:me ~at:period ~tag:0
  | Garbage at ->
      let p = Party.attach ~cfg ~me engine in
      Party.start p input;
      let n = cfg.Config.n in
      let bogus_pairs =
        [ (-1, input); (n + 5, input); (0, input); (0, Vec.scale 2. input) ]
      in
      let shoot () =
        List.iter
          (fun msg -> Engine.broadcast engine ~src:me msg)
          [
            (* report naming out-of-range and duplicate parties *)
            Message.Obc_report
              { iter = 1; pairs = bogus_pairs };
            (* report for an iteration far in the future *)
            Message.Obc_report
              { iter = 10_000; pairs = bogus_pairs };
            (* witness set full of bogus identifiers *)
            Message.Witness_set
              { parties = [ -3; n; n + 1; 0; 0 ] };
            (* a reliably-broadcast report with junk content *)
            Message.Rbc
              ( { Message.tag = Message.Init_report; origin = me },
                Message.Init,
                Message.Ppairs bogus_pairs );
            (* halt for a negative iteration *)
            Message.Rbc
              ( { Message.tag = Message.Halt (-2); origin = me },
                Message.Init,
                Message.Pint (-2) );
            (* mismatched payload kinds *)
            Message.Rbc
              ( { Message.tag = Message.Obc_value 1; origin = me },
                Message.Init,
                Message.Pparties [ 1; 2 ] );
          ]
      in
      (* fire once via a timer so the flood lands mid-protocol; the honest
         machinery of this party keeps its own timers flowing *)
      let base_handler = Party.handle p in
      Engine.set_party engine me (fun ev ->
          (match ev with
          | Engine.Timer 99 -> shoot ()
          | _ -> ());
          base_handler ev);
      Engine.set_timer engine ~party:me ~at:at ~tag:99
  | Lagger delay ->
      let p =
        Party.create ~cfg ~me
          ~now:(fun () -> Engine.now engine)
          ~send_all:(fun msg -> Engine.broadcast engine ~src:me msg)
          ~set_timer:(fun ~at -> Engine.set_timer engine ~party:me ~at ~tag:0)
          ()
      in
      let started = ref false in
      let backlog = ref [] in
      Engine.set_party engine me (fun ev ->
          if !started then Party.handle p ev
          else if Engine.now engine >= delay then begin
            started := true;
            Party.start p input;
            List.iter (Party.handle p) (List.rev !backlog);
            Party.handle p ev
          end
          else
            match ev with
            | Engine.Deliver _ -> backlog := ev :: !backlog
            | Engine.Timer _ -> ());
      Engine.set_timer engine ~party:me ~at:delay ~tag:0
