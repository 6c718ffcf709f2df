(* Binary serialisation of the protocol's logical messages.

   The sim backend passes [Message.t] values by reference; the net
   backend must push them through sockets, so every constructor gets a
   byte-exact round-trip here. Integrity is the frame layer's job (CRC +
   MAC), so a malformed buffer reaching [decode] means a local bug —
   decode raises the structured [Malformed] rather than trying to limp
   on, and the caller treats it as fatal for the connection.

   Vectors travel as raw IEEE-754 bit patterns ([Int64.bits_of_float]),
   so the round-trip is exact — the sim-as-oracle differential compares
   outputs with [Vec.equal_exact] and any decimal formatting would show
   up immediately. *)

exception Malformed of string

let bad fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* -- writer -- *)

let w8 b v = Buffer.add_char b (Char.chr (v land 0xff))
let w32 b v = Buffer.add_int32_le b (Int32.of_int v)
let w64 b v = Buffer.add_int64_le b v
let wf b f = w64 b (Int64.bits_of_float f)

let wvec b v =
  let a = Vec.to_array v in
  w32 b (Array.length a);
  Array.iter (wf b) a

let wpairs b ps =
  w32 b (List.length ps);
  List.iter
    (fun (i, v) ->
      w32 b i;
      wvec b v)
    ps

let wparties b ps =
  w32 b (List.length ps);
  List.iter (w32 b) ps

let wtag b = function
  | Message.Init_value -> w8 b 0
  | Message.Init_report -> w8 b 1
  | Message.Obc_value it ->
      w8 b 2;
      w32 b it
  | Message.Halt it ->
      w8 b 3;
      w32 b it
  | Message.Async_value it ->
      w8 b 4;
      w32 b it
  | Message.Async_report it ->
      w8 b 5;
      w32 b it

let wid b { Message.tag; origin } =
  wtag b tag;
  w32 b origin

let wstep b = function
  | Message.Init -> w8 b 0
  | Message.Echo -> w8 b 1
  | Message.Ready -> w8 b 2

let wpayload b = function
  | Message.Pvec v ->
      w8 b 0;
      wvec b v
  | Message.Ppairs ps ->
      w8 b 1;
      wpairs b ps
  | Message.Pint i ->
      w8 b 2;
      w64 b (Int64.of_int i)
  | Message.Pparties ps ->
      w8 b 3;
      wparties b ps

let wentry b (id, step, p) =
  wid b id;
  wstep b step;
  wpayload b p

let write b = function
  | Message.Rbc (id, step, p) ->
      w8 b 0;
      wentry b (id, step, p)
  | Message.Rbc_batch entries ->
      w8 b 1;
      w32 b (List.length entries);
      List.iter (wentry b) entries
  | Message.Obc_report { iter; pairs } ->
      w8 b 2;
      w32 b iter;
      wpairs b pairs
  | Message.Witness_set { parties } ->
      w8 b 3;
      wparties b parties
  | Message.Sync_round { round; value } ->
      w8 b 4;
      w32 b round;
      wvec b value
  | Message.Ew_value { iter; value } ->
      w8 b 5;
      w32 b iter;
      wvec b value
  | Message.Ew_report { iter; pairs } ->
      w8 b 6;
      w32 b iter;
      wpairs b pairs
  | Message.Junk n ->
      w8 b 7;
      w32 b n
  | Message.Ew_echo { iter; pairs } ->
      w8 b 8;
      w32 b iter;
      wpairs b pairs

let encode msg =
  let b = Buffer.create 128 in
  write b msg;
  Buffer.to_bytes b

(* -- reader -- *)

type cursor = { buf : Bytes.t; mutable pos : int }

let need c n =
  if c.pos + n > Bytes.length c.buf then
    bad "truncated at byte %d (need %d more)" c.pos n

let r8 c =
  need c 1;
  let v = Char.code (Bytes.get c.buf c.pos) in
  c.pos <- c.pos + 1;
  v

let r32 c =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_le c.buf c.pos) in
  c.pos <- c.pos + 4;
  v

let r64 c =
  need c 8;
  let v = Bytes.get_int64_le c.buf c.pos in
  c.pos <- c.pos + 8;
  v

let rlen c what =
  let n = r32 c in
  if n < 0 || n > 1_000_000 then bad "implausible %s count %d" what n;
  n

let rvec c =
  let d = rlen c "vector dimension" in
  let a = Array.init d (fun _ -> Int64.float_of_bits (r64 c)) in
  Vec.of_array a

let rpairs c =
  let n = rlen c "pair" in
  List.init n (fun _ ->
      let i = r32 c in
      let v = rvec c in
      (i, v))

let rparties c =
  let n = rlen c "party" in
  List.init n (fun _ -> r32 c)

let rtag c =
  match r8 c with
  | 0 -> Message.Init_value
  | 1 -> Message.Init_report
  | 2 -> Message.Obc_value (r32 c)
  | 3 -> Message.Halt (r32 c)
  | 4 -> Message.Async_value (r32 c)
  | 5 -> Message.Async_report (r32 c)
  | t -> bad "unknown rbc tag %d" t

let rid c =
  let tag = rtag c in
  let origin = r32 c in
  { Message.tag; origin }

let rstep c =
  match r8 c with
  | 0 -> Message.Init
  | 1 -> Message.Echo
  | 2 -> Message.Ready
  | s -> bad "unknown step %d" s

let rpayload c =
  match r8 c with
  | 0 -> Message.Pvec (rvec c)
  | 1 -> Message.Ppairs (rpairs c)
  | 2 -> Message.Pint (Int64.to_int (r64 c))
  | 3 -> Message.Pparties (rparties c)
  | p -> bad "unknown payload kind %d" p

let rentry c =
  let id = rid c in
  let step = rstep c in
  let p = rpayload c in
  (id, step, p)

let read c =
  match r8 c with
  | 0 ->
      let id, step, p = rentry c in
      Message.Rbc (id, step, p)
  | 1 ->
      let n = rlen c "batch entry" in
      Message.Rbc_batch (List.init n (fun _ -> rentry c))
  | 2 ->
      let iter = r32 c in
      Message.Obc_report { iter; pairs = rpairs c }
  | 3 -> Message.Witness_set { parties = rparties c }
  | 4 ->
      let round = r32 c in
      Message.Sync_round { round; value = rvec c }
  | 5 ->
      let iter = r32 c in
      Message.Ew_value { iter; value = rvec c }
  | 6 ->
      let iter = r32 c in
      Message.Ew_report { iter; pairs = rpairs c }
  | 7 -> Message.Junk (r32 c)
  | 8 ->
      let iter = r32 c in
      Message.Ew_echo { iter; pairs = rpairs c }
  | k -> bad "unknown message kind %d" k

let decode bytes =
  let c = { buf = bytes; pos = 0 } in
  let msg = read c in
  if c.pos <> Bytes.length bytes then
    bad "trailing %d bytes after message" (Bytes.length bytes - c.pos);
  msg

(* -- the net backend's logical record: engine metadata + message -- *)

let encode_record ~engine_seq ~deliver_at msg =
  let b = Buffer.create 144 in
  w64 b (Int64.of_int engine_seq);
  w64 b (Int64.of_int deliver_at);
  write b msg;
  Buffer.to_bytes b

let decode_record bytes =
  let c = { buf = bytes; pos = 0 } in
  let engine_seq = Int64.to_int (r64 c) in
  let deliver_at = Int64.to_int (r64 c) in
  let msg = read c in
  if c.pos <> Bytes.length bytes then
    bad "trailing %d bytes after record" (Bytes.length bytes - c.pos);
  (engine_seq, deliver_at, msg)
