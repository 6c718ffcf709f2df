(* The seed ΠrBC implementation, unchanged apart from its home
   (including its exception-as-control-flow [votes] lookup): the
   differential oracle for [Rbc], whose interned vote tables must invoke
   the callbacks exactly as this module does on every call sequence. *)

type callbacks = Rbc.callbacks

module IdMap = Map.Make (struct
  type t = Message.rbc_id

  let compare = Stdlib.compare
end)

module PayloadMap = Map.Make (struct
  type t = Message.payload

  let compare = Stdlib.compare
end)

module IntSet = Set.Make (Int)

type instance = {
  mutable echoed : bool;  (* sent our echo (for some value) *)
  mutable readied : bool;  (* sent our ready (for some value) *)
  mutable output : Message.payload option;
  mutable echo_votes : IntSet.t PayloadMap.t;  (* value -> echo senders *)
  mutable ready_votes : IntSet.t PayloadMap.t;  (* value -> ready senders *)
}

type t = {
  n : int;
  thr : int;
  cb : callbacks;
  mutable instances : instance IdMap.t;
}

let create ~n ~t cb =
  if n <= 3 * t then invalid_arg "Rbc.create: requires n > 3t";
  { n; thr = t; cb; instances = IdMap.empty }

let instance t id =
  match IdMap.find_opt id t.instances with
  | Some inst -> inst
  | None ->
      let inst =
        {
          echoed = false;
          readied = false;
          output = None;
          echo_votes = PayloadMap.empty;
          ready_votes = PayloadMap.empty;
        }
      in
      t.instances <- IdMap.add id inst t.instances;
      inst

let votes map v =
  try IntSet.cardinal (PayloadMap.find v map) with Not_found -> 0

let add_vote map ~from v =
  PayloadMap.update v
    (function
      | None -> Some (IntSet.singleton from)
      | Some s -> Some (IntSet.add from s))
    map

let send_echo t id v inst =
  if not inst.echoed then begin
    inst.echoed <- true;
    t.cb.Rbc.send_all (Message.Rbc (id, Message.Echo, v))
  end

let send_ready t id v inst =
  if not inst.readied then begin
    inst.readied <- true;
    t.cb.Rbc.send_all (Message.Rbc (id, Message.Ready, v))
  end

let check_progress t id inst v =
  (* n - t echoes, or t + 1 readies: send our ready for v *)
  if
    (not inst.readied)
    && (votes inst.echo_votes v >= t.n - t.thr
       || votes inst.ready_votes v >= t.thr + 1)
  then send_ready t id v inst;
  (* n - t readies: deliver v *)
  if inst.output = None && votes inst.ready_votes v >= t.n - t.thr then begin
    inst.output <- Some v;
    t.cb.Rbc.deliver id v
  end

let broadcast t id v = t.cb.Rbc.send_all (Message.Rbc (id, Message.Init, v))

let on_message t ~from id step v =
  let inst = instance t id in
  match step with
  | Message.Init ->
      (* only the designated origin may initiate *)
      if from = id.origin then send_echo t id v inst
  | Message.Echo ->
      inst.echo_votes <- add_vote inst.echo_votes ~from v;
      check_progress t id inst v
  | Message.Ready ->
      inst.ready_votes <- add_vote inst.ready_votes ~from v;
      check_progress t id inst v

let delivered t id =
  match IdMap.find_opt id t.instances with
  | Some inst -> inst.output
  | None -> None
