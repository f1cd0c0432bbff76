(* The traced run's per-layer measurements. Every number here is taken
   from the benchmark's side of a public entry point: pool telemetry, the
   runner's tracer, engine statistics on replayed points, store counters,
   and timed calls into the spec, store, protocol and bound layers. *)

open Common
module E = Cocheck_experiments
module Pool = Cocheck_parallel.Pool
module Tracing = Cocheck_obs.Tracing
module Span = Cocheck_obs.Span
module Engine = Cocheck_des.Engine
module Simulator = Cocheck_sim.Simulator
module Ev_kind = Cocheck_sim.Ev_kind
module Strategy = Cocheck_core.Strategy

(* Every per-layer metric with its unit, in report order. *)
let catalogue =
  [
    ("pool.tasks", "count");
    ("pool.busy_s", "s");
    ("pool.idle_frac", "ratio");
    ("pool.queue_wait_p50_ms", "ms");
    ("pool.queue_wait_p95_ms", "ms");
    ("runner.simulated", "count");
    ("runner.baselines", "count");
    ("runner.loaded", "count");
    ("runner.generate_s", "s");
    ("runner.baseline_s", "s");
    ("runner.sim_s", "s");
    ("runner.task_self_s", "s");
    ("runner.ci95_halfwidth_max", "ratio");
    ("fig3.searches", "count");
    ("fig3.simulated_per_search", "count");
    ("sim.events_per_run", "count");
    ("sim.ns_per_event", "ns");
    ("sim.minor_words_per_event", "words");
    ("des.fired.job", "count");
    ("des.fired.io", "count");
    ("des.fired.ckpt", "count");
    ("des.fired.failure", "count");
    ("des.cancelled_per_run", "count");
    ("des.rescheduled_per_run", "count");
    ("sim.io_busy_fraction", "ratio");
    ("core.bound_solve_us", "us");
    ("spec.cell_key_us", "us");
    ("store.hits", "count");
    ("store.misses", "count");
    ("store.loads", "count");
    ("store.writes", "count");
    ("store.evictions", "count");
    ("store.find_disk_us", "us");
    ("store.find_index_us", "us");
    ("store.add_us", "us");
    ("protocol.request_bytes", "bytes");
    ("protocol.reply_bytes", "bytes");
    ("protocol.encode_us", "us");
    ("protocol.decode_us", "us");
    ("serve.server_ms_p50", "ms");
    ("serve.transport_ms_p50", "ms");
    ("service.served", "count");
    ("service.overload", "count");
    ("service.inflight_max", "count");
    ("gc.minor_words", "words");
    ("gc.major_collections", "count");
    ("trace.overhead_frac", "ratio");
    ("code.lib_bin_lines", "lines");
  ]

(* Values gathered by one traced run; a layer the workload does not use
   keeps 0. *)
type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64

let set (t : t) name v =
  if not (List.mem_assoc name catalogue) then invalid_arg ("Layers.set: " ^ name);
  Hashtbl.replace t name v

let add (t : t) name v = set t name (v +. Option.value ~default:0.0 (Hashtbl.find_opt t name))

let metrics (t : t) =
  List.map
    (fun (name, unit_) ->
      metric name unit_ (Option.value ~default:0.0 (Hashtbl.find_opt t name)))
    catalogue

(* ------------------------------------------------------------------ *)
(* Pool telemetry                                                       *)
(* ------------------------------------------------------------------ *)

type pool_acc = {
  m : Mutex.t;
  mutable tasks : int;
  mutable busy_s : float;
  mutable idle_s : float;
  mutable waits_s : float list;
  mutable dequeued : int;
}

let pool_acc () =
  { m = Mutex.create (); tasks = 0; busy_s = 0.0; idle_s = 0.0; waits_s = []; dequeued = 0 }

(* Tasks taken off the queue so far. Workers report a dequeue before they
   run the task, so once a batch's futures are awaited its tasks are all
   counted (completions are reported after the future resolves). A
   sequential pool reports no dequeues, but each of its tasks completes
   inline, before its future is returned. *)
let dequeued acc = Mutex.protect acc.m (fun () -> max acc.dequeued acc.tasks)

(* Telemetry that feeds [acc] and the tracer's worker lanes. *)
let telemetry acc tracer =
  let lanes = Tracing.pool_telemetry tracer () in
  {
    Pool.on_task =
      (fun ~worker ~queued_s ~ran_s ->
        Mutex.protect acc.m (fun () ->
            acc.tasks <- acc.tasks + 1;
            acc.busy_s <- acc.busy_s +. ran_s;
            acc.waits_s <- queued_s :: acc.waits_s);
        lanes.Pool.on_task ~worker ~queued_s ~ran_s);
    on_idle =
      (fun ~worker ~idle_s ->
        Mutex.protect acc.m (fun () ->
            acc.idle_s <- acc.idle_s +. idle_s;
            acc.dequeued <- acc.dequeued + 1);
        lanes.Pool.on_idle ~worker ~idle_s);
  }

let record_pool t acc ~iterations =
  let per x = x /. float_of_int iterations in
  set t "pool.tasks" (per (float_of_int acc.tasks));
  set t "pool.busy_s" (per acc.busy_s);
  if acc.busy_s +. acc.idle_s > 0.0 then
    set t "pool.idle_frac" (acc.idle_s /. (acc.busy_s +. acc.idle_s));
  match acc.waits_s with
  | [] -> ()
  | ws ->
      let ms = Array.of_list (List.map (fun w -> w *. 1e3) ws) in
      set t "pool.queue_wait_p50_ms" (H.median ms);
      set t "pool.queue_wait_p95_ms" (H.tail ms).H.value

(* ------------------------------------------------------------------ *)
(* Runner spans                                                         *)
(* ------------------------------------------------------------------ *)

(* Split the runner's spans into generate / baseline / simulate time and
   the task spans' own (self) time, per iteration. *)
let record_runner_spans t tracer ~iterations =
  let slices =
    List.filter_map
      (function
        | Span.Slice { name; track; ts_us; dur_us; _ } -> Some (name, track, ts_us, dur_us)
        | _ -> None)
      (Tracing.events tracer)
    |> Array.of_list
  in
  let self =
    H.self_times
      (Array.map (fun (_, track, start, dur) -> { H.track; start; dur }) slices)
  in
  let sum pred value =
    let acc = ref 0.0 in
    Array.iteri (fun i (name, _, _, dur) -> if pred name then acc := !acc +. value i dur) slices;
    !acc /. float_of_int iterations /. 1e6
  in
  let starts p name = String.starts_with ~prefix:p name in
  let dur _ d = d in
  set t "runner.generate_s" (sum (String.equal "generate") dur);
  set t "runner.baseline_s" (sum (String.equal "baseline") dur);
  set t "runner.sim_s" (sum (starts "sim:") dur);
  set t "runner.task_self_s" (sum (starts "cell ") (fun i _ -> self.(i)))

let record_outcome t (o : E.Runner.outcome) =
  add t "runner.simulated" (float_of_int o.E.Runner.simulated);
  add t "runner.baselines" (float_of_int o.E.Runner.baselines);
  add t "runner.loaded" (float_of_int o.E.Runner.loaded)

let record_store t (st : E.Store.stats) =
  add t "store.hits" (float_of_int st.E.Store.hits);
  add t "store.misses" (float_of_int st.E.Store.misses);
  add t "store.loads" (float_of_int st.E.Store.loads);
  add t "store.writes" (float_of_int st.E.Store.writes);
  add t "store.evictions" (float_of_int st.E.Store.evictions)

(* Divide accumulated per-run counters by the traced iteration count. *)
let per_iteration t names ~iterations =
  List.iter
    (fun n ->
      match Hashtbl.find_opt t n with
      | Some v -> set t n (v /. float_of_int iterations)
      | None -> ())
    names

(* ------------------------------------------------------------------ *)
(* Simulator and engine, on replayed points                              *)
(* ------------------------------------------------------------------ *)

type point = {
  spec : E.Spec.t;
  cell : E.Spec.cell;
  strategy : Strategy.t;
  rep : int;
}

(* Replay [points] one by one on the calling domain: once with engine
   statistics attached (event counts), once bare (time and allocation per
   event). Returns the replayed waste ratios, in order, so the caller can
   check them against the campaign's. *)
let replay_points t (points : point list) =
  let runs = ref 0 and events = ref 0 and ns = ref 0.0 and words = ref 0.0 in
  let busy = ref 0.0 in
  let fired = Hashtbl.create 8 and cancelled = ref 0 and rescheduled = ref 0 in
  let ratios =
    List.map
      (fun p ->
        let cfg s = E.Spec.config p.spec ~cell:p.cell ~strategy:s ~rep:p.rep in
        let base_cfg = cfg Strategy.Baseline in
        let specs = Simulator.generate_specs base_cfg in
        let baseline = Simulator.run ~specs base_cfg in
        let stats = ref None in
        let counted =
          Simulator.run ~specs
            ~on_engine:(fun e -> stats := Some (Engine.attach_stats e ~kinds:Ev_kind.names ()))
            (cfg p.strategy)
        in
        (match !stats with
        | Some st ->
            List.iter
              (fun (name, _, f, _) ->
                Hashtbl.replace fired name (f + Option.value ~default:0 (Hashtbl.find_opt fired name)))
              (Engine.stats_by_kind st);
            cancelled := !cancelled + Engine.stats_cancelled st;
            rescheduled := !rescheduled + Engine.stats_rescheduled st
        | None -> ());
        let w0 = Gc.minor_words () in
        let t0 = now () in
        let bare = Simulator.run ~specs (cfg p.strategy) in
        let dt = now () -. t0 in
        words := !words +. (Gc.minor_words () -. w0);
        ns := !ns +. (dt *. 1e9);
        incr runs;
        events := !events + bare.Simulator.events;
        busy := !busy +. bare.Simulator.io_busy_fraction;
        let r1 = Simulator.waste_ratio ~strategy:counted ~baseline in
        let r2 = Simulator.waste_ratio ~strategy:bare ~baseline in
        (r1, r2))
      points
  in
  if !runs > 0 then begin
    let n = float_of_int !runs in
    set t "sim.events_per_run" (float_of_int !events /. n);
    if !events > 0 then begin
      set t "sim.ns_per_event" (!ns /. float_of_int !events);
      set t "sim.minor_words_per_event" (!words /. float_of_int !events)
    end;
    List.iter
      (fun k ->
        set t ("des.fired." ^ k)
          (float_of_int (Option.value ~default:0 (Hashtbl.find_opt fired k)) /. n))
      [ "job"; "io"; "ckpt"; "failure" ];
    set t "des.cancelled_per_run" (float_of_int !cancelled /. n);
    set t "des.rescheduled_per_run" (float_of_int !rescheduled /. n);
    set t "sim.io_busy_fraction" (!busy /. n)
  end;
  ratios

(* ------------------------------------------------------------------ *)
(* Timed calls into the spec, store, protocol and bound layers           *)
(* ------------------------------------------------------------------ *)

let key_of p = E.Spec.cell_key p.spec ~cell:p.cell ~strategy:p.strategy ~rep:p.rep

let record_cell_key t points = set t "spec.cell_key_us" (us_per_call ~reps:3 key_of points)

let record_bound t platforms =
  set t "core.bound_solve_us"
    (us_per_call ~reps:20 (fun platform -> E.Runner.theoretical_waste ~platform ()) platforms)

(* A minimal store record. *)
let record_json ~key ratio =
  Json.Obj [ ("key", Json.String key); ("waste_ratio", Json.Float ratio) ]

(* Time record lookups on a store another handle filled — first from disk
   into a cold index, then from the index — and appends into an empty
   store. *)
let record_store_replays s t ~filled_dir ~keys =
  if keys <> [] then begin
    let st = E.Store.open_ filled_dir in
    set t "store.find_disk_us" (us_per_call (E.Store.find st) keys);
    set t "store.find_index_us" (us_per_call ~reps:20 (E.Store.find st) keys);
    let scratch = E.Store.open_ (fresh_dir s "store-add") in
    set t "store.add_us"
      (us_per_call
         (fun key ->
           E.Store.add scratch ~key ~ratio:0.25 (record_json ~key 0.25))
         keys)
  end

(* Bytes and codec time of a campaign request for [spec] and its reply. *)
let record_protocol t spec (reply : E.Protocol.response) =
  let req = E.Protocol.Campaign { spec; progress = false } in
  let req_s = Json.to_string (E.Protocol.request_to_json ~id:1 req) in
  let rep_s = Json.to_string (E.Protocol.response_to_json ~id:1 reply) in
  set t "protocol.request_bytes" (float_of_int (String.length req_s));
  set t "protocol.reply_bytes" (float_of_int (String.length rep_s));
  let encode () =
    ignore (Json.to_string (E.Protocol.request_to_json ~id:1 req));
    Json.to_string (E.Protocol.response_to_json ~id:1 reply)
  in
  let decode () =
    ( Result.map E.Protocol.request_of_json (Json.of_string req_s),
      Result.map E.Protocol.response_of_json (Json.of_string rep_s) )
  in
  set t "protocol.encode_us" (us_per_call ~reps:50 encode [ () ]);
  set t "protocol.decode_us" (us_per_call ~reps:50 decode [ () ])

(* The service's reply to a campaign query, built as the service builds it. *)
let campaign_reply (o : E.Runner.outcome) =
  E.Protocol.Campaign_result
    {
      elapsed_s = 0.0;
      simulated = o.E.Runner.simulated;
      baselines = o.E.Runner.baselines;
      loaded = o.E.Runner.loaded;
      total_points = List.length o.E.Runner.results * o.E.Runner.spec.E.Spec.reps;
      cells =
        List.map
          (fun (r : E.Runner.cell_result) ->
            let st = r.E.Runner.stats in
            {
              E.Protocol.x = r.E.Runner.x;
              strategy = Strategy.name r.E.Runner.strategy;
              mean = st.Cocheck_util.Stats.mean;
              median = st.Cocheck_util.Stats.median;
              q1 = st.Cocheck_util.Stats.q1;
              q3 = st.Cocheck_util.Stats.q3;
            })
          o.E.Runner.results;
    }

(* Process-wide GC counters. Worker domains' counts are folded in when
   they terminate, so take the closing sample after the pool shut down. *)
let gc_sample () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

let record_gc t (w0, m0) (w1, m1) ~iterations =
  set t "gc.minor_words" ((w1 -. w0) /. float_of_int iterations);
  set t "gc.major_collections" (float_of_int (m1 - m0) /. float_of_int iterations)

(* Lines of the library and the CLI: an informational size figure. *)
let record_code_lines t =
  let rec count path =
    match (Unix.lstat path).Unix.st_kind with
    | Unix.S_DIR ->
        Array.fold_left (fun acc e -> acc + count (Filename.concat path e)) 0 (Sys.readdir path)
    | Unix.S_REG ->
        let ic = open_in_bin path in
        let n = ref 0 in
        (try
           while true do
             ignore (input_line ic);
             incr n
           done
         with End_of_file -> ());
        close_in ic;
        !n
    | _ -> 0
    | exception Unix.Unix_error _ -> 0
  in
  set t "code.lib_bin_lines" (float_of_int (count "lib" + count "bin"))

(* Close a traced run: GC counters since [gc0] (sample it before the
   observed pool starts; call this after it shut down), tracing overhead
   against the untraced phase, the code size, and the optional Perfetto
   export. *)
let finish s t tracer ~gc0 ~iterations ~(plain : samples) ~(traced : samples) =
  record_gc t gc0 (gc_sample ()) ~iterations;
  set t "trace.overhead_frac" ((median_of traced.walls /. median_of plain.walls) -. 1.0);
  record_code_lines t;
  Option.iter
    (fun path -> Tracing.write ~path ~process_name:("perfbench " ^ s.workload) tracer)
    s.trace_out;
  metrics t
