(* Shared plumbing of the benchmark: run settings, clocks, scratch
   directories, the output check and the metric table. *)

module Json = Cocheck_obs.Json
module H = Perfbench_helpers

type settings = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  domains : int;
  work_dir : string;  (** scratch root of this run, removed at exit *)
  trace_out : string option;  (** Perfetto export of the traced phase *)
  record_reference : string option;
}

let now = Unix.gettimeofday

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Wall and process CPU seconds of [f ()]. *)
let timed f =
  let w0 = now () and c0 = cpu_now () in
  let r = f () in
  (r, now () -. w0, cpu_now () -. c0)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let fresh_counter = Atomic.make 0

(* A new empty directory under the run's scratch root. *)
let fresh_dir s tag =
  let d =
    Filename.concat s.work_dir
      (Printf.sprintf "%s-%d" tag (Atomic.fetch_and_add fresh_counter 1))
  in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

(* The seed of a run's [i]-th iteration: the run seed first, then seeds
   whose replications never meet the run seed's. Each iteration draws new
   job and failure traces, so a run's median averages over many draws. *)
let sub_seed seed i = seed + (7_000_000_000 * i)

(* Loop [f] until [seconds] have passed, running it at least [min_runs]
   times. *)
let run_for ~seconds ?(min_runs = 1) f =
  let stop = now () +. seconds in
  let rec go i =
    f i;
    if i + 1 < min_runs || now () < stop then go (i + 1)
  in
  go 0

(* Mean microseconds per call of [f x] over [xs], the whole list timed
   [reps] times: one clock read per pass keeps sub-microsecond calls
   measurable. *)
let us_per_call ?(reps = 1) f xs =
  let n = List.length xs * reps in
  if n = 0 then 0.0
  else begin
    let t0 = now () in
    for _ = 1 to reps do
      List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs
    done;
    (now () -. t0) *. 1e6 /. float_of_int n
  end

let median_of l = H.median (Array.of_list l)

(* Set up [per_batch] environments, timed as a whole so that set-ups far
   below the clock's microsecond still read true, and tear down, untimed,
   all but the first. Returns it with the mean set-up time. *)
let setup_batch ~per_batch setup teardown =
  match timed (fun () -> List.init per_batch (fun _ -> setup ())) with
  | env :: rest, wall, _ ->
      List.iter teardown rest;
      (env, wall /. float_of_int per_batch)
  | [], _, _ -> invalid_arg "setup_batch"

(* The mean set-up time of each of [batches] batches, torn down after. *)
let setup_samples ~batches ~per_batch setup teardown =
  List.init batches (fun _ ->
      let env, wall = setup_batch ~per_batch setup teardown in
      teardown env;
      wall)

(* The host's CPU counters, summed over its vCPUs: (steal, total) in
   clock ticks, from the first line of /proc/stat; [None] where that file
   is missing or unreadable. Steal is time a hypervisor ran something else
   on a vCPU the guest wanted: it lengthens wall times but not [cpu_s]. *)
let host_cpu () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic -> (
      let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | "cpu" :: fields -> (
          match List.filteri (fun i _ -> i < 8) (List.map int_of_string_opt fields) with
          | [ Some _; Some _; Some _; Some _; Some _; Some _; Some _; Some steal ] as v ->
              Some (steal, List.fold_left (fun acc x -> acc + Option.get x) 0 v)
          | _ -> None)
      | _ -> None)

(* Share of the host's vCPU time stolen between two [host_cpu] samples. *)
let steal_share before after =
  match (before, after) with
  | Some (s0, t0), Some (s1, t1) when t1 > t0 ->
      Some (float_of_int (s1 - s0) /. float_of_int (t1 - t0))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Output check                                                         *)
(* ------------------------------------------------------------------ *)

(* Reference values keyed by point. A run at the seed the reference was
   recorded at compares every point bit for bit; a point without an entry
   is not checked. *)
type check = {
  reference : (string, float) Hashtbl.t;
  recorded : (string, float) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable notes : int;
}

let reference_path workload = Filename.concat "perfbench/reference" (workload ^ ".json")

let load_reference s =
  let tbl = Hashtbl.create 1024 in
  (match open_in_bin (reference_path s.workload) with
  | exception Sys_error _ -> ()
  | ic ->
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Json.of_string text with
      | Ok j when Option.bind (Json.member "seed" j) Json.to_int_opt = Some s.seed -> (
          match Json.member "values" j with
          | Some (Json.Obj kvs) ->
              List.iter
                (fun (k, v) -> Option.iter (Hashtbl.replace tbl k) (Json.to_float_opt v))
                kvs
          | _ -> ())
      | Ok _ -> ()
      | Error e -> failwith ("malformed reference file: " ^ e)));
  tbl

let make_check s =
  {
    reference = load_reference s;
    recorded = Hashtbl.create 1024;
    attempted = 0;
    failed = 0;
    notes = 0;
  }

let note c fmt =
  Printf.ksprintf
    (fun msg ->
      c.notes <- c.notes + 1;
      if c.notes <= 20 then prerr_endline ("perfbench: check failed: " ^ msg))
    fmt

let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Compare one reported point against the reference; [false] on a
   mismatch. Every checked value is also kept for [--record-reference]. *)
let point c key v =
  Hashtbl.replace c.recorded key v;
  match Hashtbl.find_opt c.reference key with
  | Some r when not (same r v) ->
      note c "%s = %h, reference %h" key v r;
      false
  | _ -> true

(* One attempted operation, failed unless [ok]. *)
let op c ok =
  c.attempted <- c.attempted + 1;
  if not ok then c.failed <- c.failed + 1

let write_reference s c path =
  let values =
    Hashtbl.fold (fun k v acc -> (k, Json.Float v) :: acc) c.recorded []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let j =
    Json.Obj
      [
        ("workload", Json.String s.workload);
        ("seed", Json.Int s.seed);
        ("values", Json.Obj values);
      ]
  in
  let oc = open_out_bin path in
  output_string oc (Json.to_string_pretty j);
  output_char oc '\n';
  close_out oc

(* Keyed values equal key for key and bit for bit. *)
let same_values a b =
  List.length a = List.length b && List.for_all2 (fun (k, x) (k', y) -> k = k' && same x y) a b

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "  %-32s %16.6f %s\n" m.name m.value m.unit_)
    metrics;
  let j =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                 (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string j)

(* Timings of a run's measured phase: per-iteration cold work (a batch
   iteration's cold request, or a serve session), request latencies, and
   the request count. *)
type samples = {
  mutable walls : float list;
  mutable cpus : float list;
  mutable cold_ms : float list;
  mutable warm_ms : float list;
  mutable requests : int;
  mutable phase_s : float;
}

let samples () = { walls = []; cpus = []; cold_ms = []; warm_ms = []; requests = 0; phase_s = 0.0 }

(* Run iterations for [seconds], timing the phase. [between] runs before
   every iteration but the first; its time is not part of the phase. *)
let measured_phase ?(between = ignore) sm ~seconds f =
  let t0 = now () and outside = ref 0.0 in
  run_for ~seconds (fun i ->
      if i > 0 then begin
        let t = now () in
        between ();
        outside := !outside +. (now () -. t)
      end;
      f i);
  sm.phase_s <- now () -. t0 -. !outside

(* A batch workload's set-up: one batch for the run's environment, then
   one more batch before each later iteration (passed as [between]), so
   that the median spans the whole run and not only the host's state at
   its start. *)
let spread_setup ~per_batch setup teardown =
  let env, wall = setup_batch ~per_batch setup teardown in
  let walls = ref [ wall ] in
  let between () = walls := setup_samples ~batches:1 ~per_batch setup teardown @ !walls in
  (env, walls, between)

(* The end-to-end metrics, and the tail percentile each latency used. *)
let end_to_end ~setup_walls sm =
  let cold = Array.of_list sm.cold_ms and warm = Array.of_list sm.warm_ms in
  ( [
      metric "setup_s" "s" (median_of setup_walls);
      metric "wall_s" "s" (median_of sm.walls);
      metric "cpu_s" "s" (median_of sm.cpus);
      metric "peak_rss_mb" "MiB" (Option.value ~default:0.0 (H.peak_rss_mb ()));
      metric "warm_p50_ms" "ms" (H.median warm);
      metric "warm_p95_ms" "ms" (H.tail warm).H.value;
      metric "cold_p50_ms" "ms" (H.median cold);
      metric "cold_p95_ms" "ms" (H.tail cold).H.value;
      metric "requests_per_s" "1/s" (float_of_int sm.requests /. sm.phase_s);
    ],
    [ ("warm", H.tail warm); ("cold", H.tail cold) ] )
