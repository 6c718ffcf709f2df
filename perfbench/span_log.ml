(* Spans recorded around the calls the benchmark makes into each layer,
   kept in memory and written once, at exit, as Chrome trace-event JSON
   (load the file in chrome://tracing or https://ui.perfetto.dev).

   A span has a name, a start, an end, the name of the span that caused
   it and the id of the run or request it belongs to. Handler-level work
   is not recorded per call: the traced runner sums it per (run, layer)
   and records one aggregate span per layer, flagged [aggregate], so the
   span count grows with the number of runs, not of events. *)

type span = {
  name : string;
  cat : string;
  id : int;
  parent : string;
  start : float;
  stop : float;
  args : (string * float) list;
}

let spans : span list ref = ref []
let origin = Unix.gettimeofday ()

let add ?(args = []) ~cat ~id ~parent name ~start ~stop =
  spans := { name; cat; id; parent; start; stop; args } :: !spans

let count () = List.length !spans

(* Wall time of [f ()], recorded as one span. *)
let timed ?args ~cat ~id ~parent name f =
  let start = Unix.gettimeofday () in
  let v = f () in
  add ?args ~cat ~id ~parent name ~start ~stop:(Unix.gettimeofday ());
  v

let us t = (t -. origin) *. 1e6

let write path =
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\
         \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%S"
        s.name s.cat
        (if s.cat = "harness" then 1 else 2)
        (us s.start)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent;
      List.iter (fun (k, v) -> Printf.fprintf oc ",%S:%.17g" k v) s.args;
      output_string oc "}}")
    (List.rev !spans);
  output_string oc "\n]}\n";
  close_out oc
