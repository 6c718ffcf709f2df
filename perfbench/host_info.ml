(* Host metadata printed with every result, and a calibration loop, so
   that drift between two hosts can be told apart from drift in the
   code. Files are read relative to the working directory (the checkout
   root); the kernel's own /proc view is read for the load average. *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let git_commit () =
  match read_file ".git/HEAD" with
  | None -> "none"
  | Some head -> (
      let head = String.trim head in
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> (
          match read_file (Filename.concat ".git" r) with
          | Some c -> String.trim c
          | None -> "unknown")
      | _ -> head)

let loadavg () =
  match read_file "/proc/loadavg" with
  | None -> "unknown"
  | Some s -> (
      match String.split_on_char ' ' s with
      | a :: b :: c :: _ -> String.concat "," [ a; b; c ]
      | _ -> "unknown")

(* A fixed pure-OCaml loop: integer mixing and float arithmetic, then
   dependent reads over a 512 KiB table with short-lived allocation, the
   cache-bound pattern the protocol code spends its time in. Median of
   five repetitions, in ms. *)
let calib_ms () =
  let n = 1 lsl 16 in
  let table = Array.init n (fun i -> i * 7919 land (n - 1)) in
  let once () =
    let t0 = Unix.gettimeofday () in
    let acc = ref 0 and f = ref 0. and j = ref 0 and l = ref [] in
    for i = 1 to 2_000_000 do
      acc := (!acc * 31) + i land 0xFFFFFF;
      f := !f +. sqrt (float_of_int (i land 1023));
      j := table.((!j + i) land (n - 1));
      if i land 3 = 0 then l := (!j, i) :: (if i land 255 = 0 then [] else !l)
    done;
    ignore (Sys.opaque_identity (!acc, !f, !l));
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  Stats.percentile (List.init 5 (fun _ -> once ())) 50.

let describe () =
  Printf.sprintf "nproc=%d ocaml=%s word_size=%d commit=%s loadavg=%s"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.word_size (git_commit ()) (loadavg ())
