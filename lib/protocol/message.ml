type tag =
  | Init_value
  | Init_report
  | Obc_value of int
  | Halt of int
  | Async_value of int
  | Async_report of int

type rbc_id = { tag : tag; origin : int }

type payload =
  | Pvec of Vec.t
  | Ppairs of (int * Vec.t) list
  | Pint of int
  | Pparties of int list

type step = Init | Echo | Ready

type t =
  | Rbc of rbc_id * step * payload
  | Rbc_batch of (rbc_id * step * payload) list
  | Obc_report of { iter : int; pairs : (int * Vec.t) list }
  | Witness_set of { parties : int list }
  | Sync_round of { round : int; value : Vec.t }
  | Ew_value of { iter : int; value : Vec.t }
  | Ew_echo of { iter : int; pairs : (int * Vec.t) list }
  | Ew_report of { iter : int; pairs : (int * Vec.t) list }
  | Junk of int

let size_of_payload = function
  | Pvec v -> 8 * Vec.dim v
  | Ppairs ps ->
      List.fold_left (fun acc (_, v) -> acc + 4 + (8 * Vec.dim v)) 0 ps
  | Pint _ -> 8
  | Pparties ps -> 4 * List.length ps

(* A batch pays the 16-byte packet header once; each entry then costs an
   8-byte (tag, origin, step) descriptor plus its payload — that
   amortisation is the whole point of batching. *)
let size_of_entry (_, _, p) = 8 + size_of_payload p

let size_of = function
  | Rbc (_, _, p) -> 16 + size_of_payload p
  | Rbc_batch entries ->
      List.fold_left (fun acc e -> acc + size_of_entry e) 16 entries
  | Obc_report { pairs; _ } -> 16 + size_of_payload (Ppairs pairs)
  | Witness_set { parties; _ } -> 16 + (4 * List.length parties)
  | Sync_round { value; _ } -> 16 + (8 * Vec.dim value)
  | Ew_value { value; _ } -> 16 + (8 * Vec.dim value)
  | Ew_echo { pairs; _ } -> 16 + size_of_payload (Ppairs pairs)
  | Ew_report { pairs; _ } -> 16 + size_of_payload (Ppairs pairs)
  | Junk n -> 16 + n

let pp_tag ppf = function
  | Init_value -> Format.fprintf ppf "init-value"
  | Init_report -> Format.fprintf ppf "init-report"
  | Obc_value it -> Format.fprintf ppf "obc[%d]" it
  | Halt it -> Format.fprintf ppf "halt[%d]" it
  | Async_value it -> Format.fprintf ppf "async-value[%d]" it
  | Async_report it -> Format.fprintf ppf "async-report[%d]" it

let pp_step ppf = function
  | Init -> Format.fprintf ppf "init"
  | Echo -> Format.fprintf ppf "echo"
  | Ready -> Format.fprintf ppf "ready"

let pp ppf = function
  | Rbc (id, step, _) ->
      Format.fprintf ppf "rbc(%a from P%d, %a)" pp_tag id.tag id.origin
        pp_step step
  | Rbc_batch entries ->
      Format.fprintf ppf "rbc-batch(%d entries)" (List.length entries)
  | Obc_report { iter; pairs; _ } ->
      Format.fprintf ppf "obc-report[%d] (%d pairs)" iter (List.length pairs)
  | Witness_set { parties; _ } ->
      Format.fprintf ppf "witness-set (%d)" (List.length parties)
  | Sync_round { round; _ } -> Format.fprintf ppf "sync-round[%d]" round
  | Ew_value { iter; _ } -> Format.fprintf ppf "ew-value[%d]" iter
  | Ew_echo { iter; pairs; _ } ->
      Format.fprintf ppf "ew-echo[%d] (%d pairs)" iter (List.length pairs)
  | Ew_report { iter; pairs; _ } ->
      Format.fprintf ppf "ew-report[%d] (%d pairs)" iter (List.length pairs)
  | Junk n -> Format.fprintf ppf "junk(%d)" n
