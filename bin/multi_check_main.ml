(* Sequential-vs-multiplexed differential gate (`make multi-check`).

   Runs the full Multi_runner differential grid — interned/batched
   message layer x k in {1,4,16} instances x D in {1,2} x sync/async x
   silent/poison corruption arms, plus EW instances — and requires every
   multiplexed run to be byte-identical to its k sequential references:
   results, engine statistics, per-instance traffic, full traces and
   monitor summaries. Exit 1 with one line per mismatch otherwise. *)

let () =
  (match Array.to_list Sys.argv with
  | _ :: [] -> ()
  | _ :: args ->
      Printf.eprintf "multi_check: unexpected arguments: %s\n"
        (String.concat " " args);
      exit 2
  | [] -> assert false);
  match Multi_runner.check_grid () with
  | [] ->
      print_endline
        "multi-check: OK (multiplexed runs byte-identical to sequential \
         across the grid)"
  | failures ->
      List.iter (fun f -> Printf.eprintf "multi-check: %s\n" f) failures;
      Printf.eprintf "multi-check: %d mismatches\n" (List.length failures);
      exit 1
