(* The batch campaign workload [hierarchy-flush]: a 3-level checkpoint
   hierarchy swept over the flush bandwidth. One iteration runs the
   campaign into a fresh store (a cold request), then re-runs it
   [warm_reruns] times against the store it just filled (warm requests,
   which must simulate nothing). *)

open Common
module E = Cocheck_experiments
module Pool = Cocheck_parallel.Pool
module Tracing = Cocheck_obs.Tracing
module Platform = Cocheck_model.Platform
module Strategy = Cocheck_core.Strategy
module Config = Cocheck_sim.Config

(* Node-local snapshots, a burst buffer with a dedicated flush edge, and
   the PFS; the axis overrides the flush bandwidth. *)
let hierarchy_spec seed =
  let multilevel =
    {
      Config.levels =
        [
          Config.Snapshot
            { Config.sl_period_s = 600.0; sl_cost_s = 5.0; sl_recovery_s = 30.0; sl_survival = 0.5 };
          Config.Buffer
            {
              Config.bl_capacity_gb = 250_000.0;
              bl_bandwidth_gbs = 1_000.0;
              bl_flush_gbs = Some 20.0;
              bl_survival = 1.0;
            };
        ];
    }
  in
  E.Spec.make ~name:"hierarchy-flush"
    ~platform:(Platform.cielo ~bandwidth_gbs:40.0 ())
    ~strategies:[ Strategy.Least_waste; Strategy.Ordered_nb Strategy.Daly; Strategy.Ordered Strategy.Daly ]
    ~axis:(E.Spec.Flush_gbs [ 5.0; 10.0; 20.0; 40.0 ])
    ~multilevel ~reps:20 ~seed ~days:4.0 ()

let warm_reruns = 12
let setups_per_batch = 5
let main_track = 1000

(* Every (cell, strategy, replication) point in outcome order, with its
   store key. *)
let points spec =
  let cells = E.Spec.cells spec in
  List.concat_map
    (fun cell ->
      List.concat_map
        (fun strategy ->
          List.init spec.E.Spec.reps (fun rep -> { Layers.spec; cell; strategy; rep }))
        spec.E.Spec.strategies)
    cells

let ratios (o : E.Runner.outcome) =
  Array.concat (List.map (fun (r : E.Runner.cell_result) -> r.E.Runner.ratios) o.E.Runner.results)

let same_ratios a b = Array.length a = Array.length b && Array.for_all2 same a b

let ci95_max (o : E.Runner.outcome) =
  List.fold_left
    (fun acc (r : E.Runner.cell_result) -> Float.max acc (H.ci95_halfwidth r.E.Runner.ratios))
    0.0 o.E.Runner.results

type env = {
  pool : Pool.t;
  spec_of : int -> E.Spec.t;
  spec : E.Spec.t;  (** the first iteration's *)
  mutable dir : string;
  mutable store : E.Store.t;
}

let setup s ?telemetry spec_of () =
  let pool = Pool.create ~num_domains:s.domains ?telemetry () in
  let spec = spec_of s.seed in
  let dir = fresh_dir s "store" in
  { pool; spec_of; spec; dir; store = E.Store.open_ dir }

let teardown env =
  Pool.shutdown env.pool;
  rm_rf env.dir

(* Iteration [i]: a cold campaign at the iteration's seed into a fresh
   store, then warm re-runs that must simulate nothing and return the cold
   ratios. The cold outcome must equal [expected] (the same iteration of
   an earlier phase) bit for bit; the first iteration also compares its
   points with the reference. *)
let iteration s c env sm ~outcomes ?(tracer = Tracing.disabled) ~on_outcome ~on_store ~expected i =
  if i > 0 then begin
    on_store (E.Store.stats env.store);
    rm_rf env.dir;
    env.dir <- fresh_dir s "store";
    env.store <- E.Store.open_ env.dir
  end;
  let spec = if i = 0 then env.spec else env.spec_of (sub_seed s.seed i) in
  let run name =
    Tracing.span tracer ~track:main_track name (fun () ->
        E.Runner.run ~pool:env.pool ~store:env.store ~tracer spec)
  in
  let o, wall, cpu = timed (fun () -> run "cold") in
  on_outcome o;
  sm.walls <- wall :: sm.walls;
  sm.cpus <- cpu :: sm.cpus;
  (* The cold request is the iteration's timed campaign: [cold_p50_ms] is
     [wall_s] in milliseconds. *)
  sm.cold_ms <- (wall *. 1e3) :: sm.cold_ms;
  let got = ratios o in
  let total = Array.length got in
  let ok_points =
    (match expected with Some e -> same_ratios got (ratios e) | None -> true)
    && (i > 0
       || List.fold_left2
            (fun ok p r -> point c (Layers.key_of p) r && ok)
            true (points spec) (Array.to_list got))
  in
  if o.E.Runner.simulated <> total then
    note c "cold run simulated %d of %d points" o.E.Runner.simulated total;
  op c (ok_points && o.E.Runner.simulated = total);
  Hashtbl.replace outcomes i o;
  for _ = 1 to warm_reruns do
    let w, wall, _ = timed (fun () -> run "warm") in
    on_outcome w;
    sm.warm_ms <- (wall *. 1e3) :: sm.warm_ms;
    let ok = w.E.Runner.simulated = 0 && w.E.Runner.baselines = 0 && same_ratios (ratios w) got in
    if not ok then note c "warm re-run simulated %d points" w.E.Runner.simulated;
    op c ok
  done;
  sm.requests <- sm.requests + 1 + warm_reruns

let phase s c env sm ~outcomes ~seconds ?between ?tracer ?(on_outcome = ignore)
    ?(on_store = ignore) ?(expected = fun _ -> None) () =
  measured_phase ?between sm ~seconds (fun i ->
      iteration s c env sm ~outcomes ?tracer ~on_outcome ~on_store ~expected:(expected i) i);
  on_store (E.Store.stats env.store)

let run_untraced s c spec_of =
  let env, setup_walls, between =
    spread_setup ~per_batch:setups_per_batch (setup s spec_of) teardown
  in
  let sm = samples () in
  Fun.protect
    ~finally:(fun () -> teardown env)
    (fun () -> phase s c env sm ~outcomes:(Hashtbl.create 16) ~seconds:s.seconds ~between ());
  end_to_end ~setup_walls:!setup_walls sm

(* The traced run: an untraced phase, then a traced phase in a fresh
   environment whose results must equal the untraced ones bit for bit. *)
let run_traced s c spec_of =
  let t = Layers.create () in
  let half = s.seconds /. 2.0 in
  let plain = samples () and plain_outcomes = Hashtbl.create 16 in
  let env = setup s spec_of () in
  Fun.protect
    ~finally:(fun () -> teardown env)
    (fun () -> phase s c env plain ~outcomes:plain_outcomes ~seconds:half ());
  let tracer = Tracing.create () in
  let acc = Layers.pool_acc () in
  let gc0 = Layers.gc_sample () in
  let env = setup s ~telemetry:(Layers.telemetry acc tracer) spec_of () in
  let traced = samples () and outcomes = Hashtbl.create 16 in
  Fun.protect
    ~finally:(fun () -> teardown env)
    (fun () ->
      phase s c env traced ~outcomes ~seconds:half ~tracer
        ~on_outcome:(Layers.record_outcome t) ~on_store:(Layers.record_store t)
        ~expected:(Hashtbl.find_opt plain_outcomes)
        ();
      let spec = env.spec in
      let pts = points spec in
      let first_outcome = Hashtbl.find plain_outcomes 0 in
      let first = ratios first_outcome in
      (* Replay two cells' first replication under every strategy and
         check them against the campaign's ratios. *)
      let per_cell = List.length spec.E.Spec.strategies * spec.E.Spec.reps in
      let cells = E.Spec.cells spec in
      let last = List.length cells - 1 in
      let sample =
        List.mapi (fun i p -> (i, p)) pts
        |> List.filter (fun (i, (p : Layers.point)) ->
               p.Layers.rep = 0 && (i / per_cell = 0 || i / per_cell = last))
      in
      List.iter2
        (fun (i, _) (r1, r2) ->
          let ok = same r1 first.(i) && same r2 r1 in
          if not ok then note c "replayed point differs from the campaign";
          op c ok)
        sample
        (Layers.replay_points t (List.map snd sample));
      Layers.record_cell_key t pts;
      Layers.record_bound t (List.map (fun (cl : E.Spec.cell) -> cl.E.Spec.platform) cells);
      Layers.record_store_replays s t ~filled_dir:env.dir ~keys:(List.map Layers.key_of pts);
      Layers.record_protocol t spec (Layers.campaign_reply first_outcome));
  let iterations = List.length traced.walls in
  Layers.per_iteration t
    [
      "runner.simulated"; "runner.baselines"; "runner.loaded"; "store.hits"; "store.misses";
      "store.loads"; "store.writes"; "store.evictions";
    ]
    ~iterations;
  Layers.record_pool t acc ~iterations;
  Layers.record_runner_spans t tracer ~iterations;
  Layers.set t "runner.ci95_halfwidth_max"
    (median_of (Hashtbl.fold (fun _ o acc -> ci95_max o :: acc) outcomes []));
  Layers.finish s t tracer ~gc0 ~iterations ~plain ~traced
