(* The serve daemon as a child process, and the open-loop load generator
   that drives it over loopback TCP from one thread. *)

let now = Unix.gettimeofday

type server = { pid : int; port : int; out : Unix.file_descr }

(* Starts [exe --port 0 --domains 1] and waits for its "listening <port>"
   line. *)
let start exe =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "--port"; "0"; "--domains"; "1" |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let buf = Buffer.create 32 and chunk = Bytes.create 64 in
  let deadline = now () +. 30. in
  let rec wait () =
    if now () > deadline then failwith "serve daemon did not announce a port";
    match Unix.select [ rd ] [] [] 0.5 with
    | [], _, _ -> wait ()
    | _ -> (
        match Unix.read rd chunk 0 (Bytes.length chunk) with
        | 0 -> failwith "serve daemon exited before listening"
        | k -> (
            Buffer.add_subbytes buf chunk 0 k;
            let s = Buffer.contents buf in
            match String.index_opt s '\n' with
            | None -> wait ()
            | Some i -> (
                match String.split_on_char ' ' (String.sub s 0 i) with
                | [ "listening"; p ] -> int_of_string p
                | _ -> failwith ("unexpected serve banner: " ^ s))))
  in
  match wait () with
  | port -> { pid; port; out = rd }
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      Unix.close rd;
      raise e

(* Peak resident set of the daemon, in MiB, from the kernel's VmHWM. *)
let peak_rss_mb s =
  match Host_info.read_file (Printf.sprintf "/proc/%d/status" s.pid) with
  | None -> nan
  | Some status ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.
              | [] -> acc)
          | _ -> acc)
        nan
        (String.split_on_char '\n' status)

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid);
  Unix.close s.out

(* One connection of the schedule: due [due] seconds after the schedule's
   start, it sends [lines] and a blank line, then reads replies to EOF. *)
type outcome = {
  due : float;  (** absolute *)
  mutable started : float;
  mutable finished : float;
  mutable replies : string list option;  (** [None]: dropped or refused *)
}

type live = {
  k : int;
  fd : Unix.file_descr;
  data : string;
  mutable off : int;
  buf : Buffer.t;
}

let replies_of buf =
  match List.rev (String.split_on_char '\n' (Buffer.contents buf)) with
  | "" :: rest -> List.rev rest
  | l -> List.rev l

(* Open loop: connection [k] is opened at its due time, or as soon after
   as fewer than [max_open] connections are open. Whatever is still open
   at [deadline] (absolute) is dropped. *)
let run ~port ~max_open ~deadline (schedule : (float * string list) array) =
  let t0 = now () in
  let out =
    Array.map
      (fun (due, _) ->
        { due = t0 +. due; started = nan; finished = nan; replies = None })
      schedule
  in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let chunk = Bytes.create 65536 in
  let live = ref [] and next = ref 0 in
  let finish l replies =
    (try Unix.close l.fd with Unix.Unix_error _ -> ());
    out.(l.k).finished <- now ();
    out.(l.k).replies <- replies;
    live := List.filter (fun x -> x.k <> l.k) !live
  in
  let open_conn k =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    out.(k).started <- now ();
    let l =
      {
        k;
        fd;
        data = String.concat "\n" (snd schedule.(k)) ^ "\n\n";
        off = 0;
        buf = Buffer.create 256;
      }
    in
    live := l :: !live;
    match Unix.connect fd addr with
    | () -> ()
    | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ()
    | exception Unix.Unix_error _ -> finish l None
  in
  let n = Array.length schedule in
  while (!next < n || !live <> []) && now () < deadline do
    while
      !next < n && List.length !live < max_open && now () >= out.(!next).due
    do
      open_conn !next;
      incr next
    done;
    let timeout =
      if !next < n && List.length !live < max_open then
        Float.min 0.05 (Float.max 0. (out.(!next).due -. now ()))
      else 0.05
    in
    let rd = List.map (fun l -> l.fd) !live in
    let wr =
      List.filter_map
        (fun l -> if l.off < String.length l.data then Some l.fd else None)
        !live
    in
    let r, w, _ =
      try Unix.select rd wr [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun l ->
        if List.mem l.fd w then
          match
            Unix.write_substring l.fd l.data l.off
              (String.length l.data - l.off)
          with
          | k -> l.off <- l.off + k
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              ()
          | exception Unix.Unix_error _ -> finish l None)
      !live;
    List.iter
      (fun l ->
        if List.mem l.fd r then
          match Unix.read l.fd chunk 0 (Bytes.length chunk) with
          | 0 -> finish l (Some (replies_of l.buf))
          | k -> Buffer.add_subbytes l.buf chunk 0 k
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              ()
          | exception Unix.Unix_error _ -> finish l None)
      !live
  done;
  List.iter (fun l -> finish l None) !live;
  out
