(* The benchmark's command line:

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--trace-out FILE] [--record-reference FILE]

   Run from the repository root. Prints one line per metric, then the
   result as one JSON object on the last line. [--trace 0] reports the
   end-to-end metrics, [--trace 1] the per-layer ones. *)

open Common

let workloads = [ "fig3-search"; "hierarchy-flush"; "serve-mixed" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (fig3-search|hierarchy-flush|serve-mixed) --seed N \
     --seconds S --trace 0|1 [--trace-out FILE] [--record-reference FILE]";
  exit 2

let parse () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let trace_out = ref None and record = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> usage ());
        go rest
    | "--trace-out" :: v :: rest ->
        trace_out := Some v;
        go rest
    | "--record-reference" :: v :: rest ->
        record := Some v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace
    when List.mem !workload workloads && seconds > 0.0 ->
      {
        workload = !workload;
        seed;
        seconds;
        trace;
        (* A sequential pool: campaign tasks run inline on the domain that
           submits them. With worker domains, wall times follow how many
           cores a shared host lends the process at that moment. *)
        domains = 0;
        work_dir = Filename.concat ".perfbench_work" (Printf.sprintf "run-%d" (Unix.getpid ()));
        trace_out = !trace_out;
        record_reference = !record;
      }
  | _ -> usage ()

let loop_kind = function
  | "serve-mixed" -> "closed loop, 2 client connections, one request in flight"
  | _ -> "batch"

let () =
  let s = parse () in
  (* The benchmark drives the tree it is run from. *)
  if not (Sys.file_exists "lib" && Sys.file_exists "perfbench") then begin
    prerr_endline "perfbench: run from the repository root";
    exit 2
  end;
  rm_rf s.work_dir;
  if not (Sys.file_exists ".perfbench_work") then Unix.mkdir ".perfbench_work" 0o755;
  Unix.mkdir s.work_dir 0o755;
  let c = make_check s in
  let host0 = host_cpu () in
  let result =
    Fun.protect
      ~finally:(fun () ->
        rm_rf s.work_dir;
        try Unix.rmdir ".perfbench_work" with Unix.Unix_error _ -> ())
      (fun () ->
        Printf.printf "workload %s: seed %d, %d pool domains, %s, %g s measured, trace %b\n%!"
          s.workload s.seed s.domains (loop_kind s.workload) s.seconds s.trace;
        if s.trace then
          match s.workload with
          | "hierarchy-flush" -> Campaign.run_traced s c Campaign.hierarchy_spec
          | "fig3-search" -> Fig3_search.run_traced s c
          | _ -> Serve.run_traced s c
        else begin
          let metrics, tails =
            match s.workload with
            | "hierarchy-flush" -> Campaign.run_untraced s c Campaign.hierarchy_spec
            | "fig3-search" -> Fig3_search.run_untraced s c
            | _ -> Serve.run_untraced s c
          in
          List.iter
            (fun (kind, (t : H.tail)) ->
              Printf.printf "  %s requests: %d samples, tail reported at p%d\n" kind t.H.samples
                t.H.percentile)
            tails;
          metrics
        end)
  in
  (* Not a metric: a note that tells a slow run on a busy host apart. *)
  Option.iter
    (Printf.printf "  host vCPU time stolen during the run: %.1f %%\n")
    (Option.map (fun x -> 100.0 *. x) (steal_share host0 (host_cpu ())));
  Option.iter (write_reference s c) s.record_reference;
  print_result ~correct:(c.failed = 0) ~attempted:c.attempted ~failed:c.failed result
