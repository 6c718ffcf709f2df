type callbacks = {
  now : unit -> int;
  set_timer : at:int -> unit;
  rbc_broadcast : Message.payload -> unit;
  send_all : Message.t -> unit;
  output : Pairset.t -> unit;
}

(* The collected set M is a flat party-indexed array of interned value
   ids and a pending report is the same shape, so the subset check behind
   witness promotion — re-run on every single event by [try_fire] — is
   O(n) int compares, not O(n·D) float comparisons. Vectors are interned as [Pvec] through the same table the
   party's rBC layer uses, so the ids agree with the values rBC
   delivered and the canonical vectors are shared in memory. *)

type pending = {
  sender : int;
  rep_pid : int array;  (* party -> value id, -1 absent *)
  rep_count : int;
}

type t = {
  n : int;
  ts : int;
  delta : int;
  iter : int;
  witnessing : bool;
  cb : callbacks;
  intern : Intern.t;
  m_pid : int array;  (* party -> interned value id, -1 absent *)
  m_vec : Vec.t array;  (* canonical vectors, valid where m_pid >= 0 *)
  mutable m_count : int;
  witness_seen : Bytes.t;
  mutable witness_count : int;
  mutable pending : pending list;  (* unverified reports, newest first *)
  seen_report : Bytes.t;
  mutable started : bool;
  mutable tau_start : int;
  mutable sent_report : bool;
  mutable done_ : bool;
}

let bit_mem b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  Bytes.set b (i lsr 3)
    (Char.chr (Char.code (Bytes.get b (i lsr 3)) lor (1 lsl (i land 7))))

let intern_vec t v =
  let pid = Intern.intern t.intern (Message.Pvec v) in
  match Intern.payload t.intern pid with
  | Message.Pvec cv -> (pid, cv)
  | _ -> assert false

(* ascending party order — exactly Pairset.bindings of the same set *)
let bindings t =
  let acc = ref [] in
  for p = t.n - 1 downto 0 do
    if t.m_pid.(p) >= 0 then acc := (p, t.m_vec.(p)) :: !acc
  done;
  !acc

let pairset t = Pairset.of_bindings (bindings t)

let report_verified t r =
  r.rep_count >= t.n - t.ts
  &&
  let ok = ref true in
  for p = 0 to t.n - 1 do
    if r.rep_pid.(p) >= 0 && r.rep_pid.(p) <> t.m_pid.(p) then ok := false
  done;
  !ok

let recheck_pending t =
  let validated, rest = List.partition (report_verified t) t.pending in
  t.pending <- rest;
  List.iter
    (fun r ->
      if not (bit_mem t.witness_seen r.sender) then begin
        bit_set t.witness_seen r.sender;
        t.witness_count <- t.witness_count + 1
      end)
    validated

let try_fire t =
  if t.started && not t.done_ then begin
    let now = t.cb.now () in
    if
      (not t.sent_report)
      && now > t.tau_start + (Params.c_rbc * t.delta)
      && t.m_count >= t.n - t.ts
    then begin
      t.sent_report <- true;
      t.cb.send_all
        (Message.Obc_report
           { iter = t.iter; pairs = bindings t })
    end;
    recheck_pending t;
    let witness_ok =
      if t.witnessing then t.witness_count >= t.n - t.ts
      else t.m_count >= t.n - t.ts
    in
    let deadline =
      if t.witnessing then (Params.c_rbc + Params.c_rbc') * t.delta
      else Params.c_rbc * t.delta
    in
    if now > t.tau_start + deadline && witness_ok then begin
      t.done_ <- true;
      t.cb.output (pairset t)
    end
  end

let start t v =
  if t.started then invalid_arg "Obc.start: already started";
  t.started <- true;
  t.tau_start <- t.cb.now ();
  t.cb.rbc_broadcast (Message.Pvec v);
  t.cb.set_timer ~at:(t.tau_start + (Params.c_rbc * t.delta) + 1);
  t.cb.set_timer
    ~at:(t.tau_start + ((Params.c_rbc + Params.c_rbc') * t.delta) + 1);
  try_fire t

let valid_party t p = p >= 0 && p < t.n

let on_value t ~origin v =
  if valid_party t origin then begin
    (* first value per origin wins, as in Pairset.add *)
    if t.m_pid.(origin) < 0 then begin
      let pid, cv = intern_vec t v in
      t.m_pid.(origin) <- pid;
      t.m_vec.(origin) <- cv;
      t.m_count <- t.m_count + 1
    end;
    try_fire t
  end

let on_report t ~from pairs =
  if valid_party t from && not (bit_mem t.seen_report from) then begin
    bit_set t.seen_report from;
    let rep_pid = Array.make t.n (-1) in
    let count = ref 0 in
    List.iter
      (fun (p, v) ->
        if valid_party t p && rep_pid.(p) < 0 then begin
          let pid, _ = intern_vec t v in
          rep_pid.(p) <- pid;
          incr count
        end)
      pairs;
    t.pending <- { sender = from; rep_pid; rep_count = !count } :: t.pending;
    try_fire t
  end

let create ?intern ?(witnessing = true) ~n ~ts ~delta ~iter cb =
  let intern =
    match intern with Some i -> i | None -> Intern.create ~initial_size:16 ()
  in
  {
    n;
    ts;
    delta;
    iter;
    witnessing;
    cb;
    intern;
    m_pid = Array.make n (-1);
    m_vec = Array.make n (Vec.zero 0);
    m_count = 0;
    witness_seen = Bytes.make ((n + 7) / 8) '\000';
    witness_count = 0;
    pending = [];
    seen_report = Bytes.make ((n + 7) / 8) '\000';
    started = false;
    tau_start = 0;
    sent_report = false;
    done_ = false;
  }

let has_output t = t.done_
let poke = try_fire
