(* The seed ΠoBC implementation, unchanged apart from its home: the
   differential oracle for [Obc]. All collected-set accounting goes
   through Pairset (an Int map of vectors) and report verification
   through Pairset.subset — O(n · D) float compares per pending report
   on every event. *)

type callbacks = Obc.callbacks

module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

type t = {
  n : int;
  ts : int;
  delta : int;
  iter : int;
  witnessing : bool;
  cb : callbacks;
  mutable started : bool;
  mutable tau_start : int;
  mutable m : Pairset.t;
  mutable witnesses : IntSet.t;
  mutable pending : Pairset.t IntMap.t;  (* reports not yet verified *)
  mutable seen_report : IntSet.t;  (* senders whose report we keep/kept *)
  mutable sent_report : bool;
  mutable done_ : bool;
}

let create ?(witnessing = true) ~n ~ts ~delta ~iter cb =
  {
    n;
    ts;
    delta;
    iter;
    witnessing;
    cb;
    started = false;
    tau_start = 0;
    m = Pairset.empty;
    witnesses = IntSet.empty;
    pending = IntMap.empty;
    seen_report = IntSet.empty;
    sent_report = false;
    done_ = false;
  }

let has_output t = t.done_

(* A report is validated when it is large enough and every pair in it has
   been rBC-delivered to us too; its sender becomes a witness. *)
let recheck_pending t =
  let validated, still_pending =
    IntMap.partition
      (fun _ report ->
        Pairset.cardinal report >= t.n - t.ts && Pairset.subset report t.m)
      t.pending
  in
  t.pending <- still_pending;
  IntMap.iter
    (fun from _ -> t.witnesses <- IntSet.add from t.witnesses)
    validated

let try_fire t =
  if t.started && not t.done_ then begin
    let now = t.cb.Obc.now () in
    if
      (not t.sent_report)
      && now > t.tau_start + (Params.c_rbc * t.delta)
      && Pairset.cardinal t.m >= t.n - t.ts
    then begin
      t.sent_report <- true;
      t.cb.Obc.send_all
        (Message.Obc_report
           { iter = t.iter; pairs = Pairset.bindings t.m })
    end;
    recheck_pending t;
    let witness_ok =
      if t.witnessing then IntSet.cardinal t.witnesses >= t.n - t.ts
      else Pairset.cardinal t.m >= t.n - t.ts
    in
    let deadline =
      if t.witnessing then (Params.c_rbc + Params.c_rbc') * t.delta
      else Params.c_rbc * t.delta
    in
    if now > t.tau_start + deadline && witness_ok then begin
      t.done_ <- true;
      t.cb.Obc.output t.m
    end
  end

let start t v =
  if t.started then invalid_arg "Obc.start: already started";
  t.started <- true;
  t.tau_start <- t.cb.Obc.now ();
  t.cb.Obc.rbc_broadcast (Message.Pvec v);
  t.cb.Obc.set_timer ~at:(t.tau_start + (Params.c_rbc * t.delta) + 1);
  t.cb.Obc.set_timer
    ~at:(t.tau_start + ((Params.c_rbc + Params.c_rbc') * t.delta) + 1);
  try_fire t

let valid_party t p = p >= 0 && p < t.n

let on_value t ~origin v =
  if valid_party t origin then begin
    t.m <- Pairset.add ~party:origin v t.m;
    try_fire t
  end

let on_report t ~from pairs =
  if valid_party t from && not (IntSet.mem from t.seen_report) then begin
    t.seen_report <- IntSet.add from t.seen_report;
    let report =
      List.fold_left
        (fun acc (p, v) ->
          if valid_party t p then Pairset.add ~party:p v acc else acc)
        Pairset.empty pairs
    in
    t.pending <- IntMap.add from report t.pending;
    try_fire t
  end

let poke t = try_fire t
