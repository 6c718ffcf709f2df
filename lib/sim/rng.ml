(* The 64-bit state lives unboxed in 8 bytes, read and written in native
   byte order (it is never serialised). [next] is inlined into every draw,
   so its int64 intermediates stay in registers: [int] allocates nothing,
   [float01] only its float result. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  set64 t 0 seed;
  t

let[@inline] next t =
  let z = Int64.add (get64 t 0) golden in
  set64 t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t = next t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  r mod bound

let float01 t =
  (* 53 random bits scaled into [0, 1) *)
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. (1. /. 9007199254740992.)

let float_range t lo hi = lo +. (float01 t *. (hi -. lo))
let bool t = Int64.logand (next t) 1L = 1L
let split t = create (next t)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
