(* The [fig3-search] workload: [Fig3.run] as [simctl fig3] calls it (no
   store), over the paper's MTBF axis and seven strategies on the
   prospective 50k-node system. A cold request is one whole figure, so
   [cold_p50_ms] is [wall_s] in milliseconds. The warm requests are
   fillers that give the workload the warm metrics every workload reports:
   the analytic (Theorem 1) curve of the figure on a fine MTBF grid, which
   simulates nothing and re-times what [core.bound_solve_us] measures. *)

open Common
module E = Cocheck_experiments
module Pool = Cocheck_parallel.Pool
module Tracing = Cocheck_obs.Tracing
module Platform = Cocheck_model.Platform
module Apex = Cocheck_model.Apex
module Strategy = Cocheck_core.Strategy

let reps = 2
let days = 10.0
let target_efficiency = 0.8
let warm_per_figure = 20

(* 5 to 25 years in steps of 0.1: 201 analytic searches, about 20 ms, long
   beside a host's scheduling slices. The grid holds the figure's own MTBF
   values exactly (100 / 10 = 10.0). *)
let fine_mtbf_years = List.init 201 (fun k -> float_of_int (50 + k) /. 10.0)

let setups_per_batch = 200
let main_track = 1000

(* The y values of every series, keyed by series label and MTBF. *)
let values (fig : E.Figures.t) =
  List.concat_map
    (fun (sr : E.Figures.series) ->
      List.map
        (fun (p : E.Figures.point) ->
          (Printf.sprintf "fig3/%s/%g" sr.E.Figures.label p.E.Figures.x, p.E.Figures.value))
        sr.E.Figures.points)
    fig.E.Figures.series

type env = { pool : Pool.t; classes : Cocheck_model.App_class.t list }

let setup s ?telemetry () =
  let pool = Pool.create ~num_domains:s.domains ?telemetry () in
  { pool; classes = Apex.scaled_workload ~target:(Platform.prospective ()) }

let teardown env = Pool.shutdown env.pool

(* Check iteration [i]'s figure against an [expected] one of the same
   iteration and, for the first iteration, against the reference. *)
let check_figure c figures ~expected i got =
  let ok =
    (match expected with Some e -> same_values got e | None -> true)
    && (i > 0 || List.fold_left (fun ok (k, v) -> point c k v && ok) true got)
  in
  if not ok then note c "figure 3 of iteration %d differs" i;
  op c ok;
  Hashtbl.replace figures i got

(* Warm requests: the theory curve on [fine_mtbf_years]. It must agree
   bit for bit with the figure's theory series where their MTBFs meet, and
   never rise with the MTBF: more reliable nodes need no more bandwidth. *)
let warm_requests c sm got =
  for _ = 1 to warm_per_figure do
    let curve, wall, _ =
      timed (fun () ->
          List.map
            (fun y ->
              (y, E.Fig3.min_bandwidth_theoretical ~node_mtbf_years:y ~target_efficiency ()))
            fine_mtbf_years)
    in
    sm.warm_ms <- (wall *. 1e3) :: sm.warm_ms;
    sm.requests <- sm.requests + 1;
    let matches =
      List.for_all
        (fun y ->
          match List.assoc_opt (Printf.sprintf "fig3/Theoretical Model/%g" y) got with
          | Some v -> same v (List.assoc y curve /. 1000.0)
          | None -> false)
        E.Fig3.default_mtbf_years
    in
    let rec non_increasing = function
      | (_, a) :: ((_, b) :: _ as rest) -> b <= a && non_increasing rest
      | _ -> true
    in
    let ok = matches && non_increasing curve in
    if not ok then note c "theory curve differs from the figure or rises with the MTBF";
    op c ok
  done

let cold_request s env sm i =
  let fig, wall, cpu =
    timed (fun () ->
        E.Fig3.run ~pool:env.pool ~reps ~seed:(sub_seed s.seed i) ~days ~target_efficiency ())
  in
  sm.walls <- wall :: sm.walls;
  sm.cpus <- cpu :: sm.cpus;
  sm.cold_ms <- (wall *. 1e3) :: sm.cold_ms;
  sm.requests <- sm.requests + 1;
  values fig

let probe_spec s env ~strategy ~mtbf ~bandwidth =
  E.Spec.make ~name:"montecarlo"
    ~platform:(Platform.prospective ~bandwidth_gbs:bandwidth ~node_mtbf_years:mtbf ())
    ~classes:env.classes ~strategies:[ strategy ] ~reps ~seed:s.seed ~days ()

let untraced_phase ?between s c env sm figures ~seconds =
  measured_phase ?between sm ~seconds (fun i ->
      let got = cold_request s env sm i in
      check_figure c figures ~expected:None i got;
      warm_requests c sm got)

let run_untraced s c =
  let env, setup_walls, between = spread_setup ~per_batch:setups_per_batch (setup s) teardown in
  let sm = samples () in
  Fun.protect
    ~finally:(fun () -> teardown env)
    (fun () -> untraced_phase ~between s c env sm (Hashtbl.create 16) ~seconds:s.seconds);
  end_to_end ~setup_walls:!setup_walls sm

(* The traced run. Its searches run one (strategy, MTBF) point at a time
   through [Fig3.min_bandwidth], in [Fig3.run]'s order, so each search's
   pool tasks — one per simulated replication — can be counted; the
   assembled figure must equal the untraced one bit for bit. *)
let run_traced s c =
  let t = Layers.create () in
  let half = s.seconds /. 2.0 in
  let plain = samples () and plain_figures = Hashtbl.create 16 in
  let env = setup s () in
  Fun.protect
    ~finally:(fun () -> teardown env)
    (fun () -> untraced_phase s c env plain plain_figures ~seconds:half);
  let first = Hashtbl.find plain_figures 0 in
  let tracer = Tracing.create () in
  let acc = Layers.pool_acc () in
  let gc0 = Layers.gc_sample () in
  let env = setup s ~telemetry:(Layers.telemetry acc tracer) () in
  let traced = samples () and figures = Hashtbl.create 16 in
  let searches = ref 0 and search_tasks = ref 0 in
  Fun.protect
    ~finally:(fun () -> teardown env)
    (fun () ->
      run_for ~seconds:half (fun i ->
          let got, wall, cpu =
            timed (fun () ->
                Tracing.span tracer ~track:main_track "fig3" (fun () ->
                    let series =
                      List.concat_map
                        (fun strategy ->
                          List.map
                            (fun mtbf ->
                              let before = Layers.dequeued acc in
                              let b =
                                Tracing.span tracer ~track:main_track "search" (fun () ->
                                    E.Fig3.min_bandwidth ~pool:env.pool ~strategy
                                      ~node_mtbf_years:mtbf ~target_efficiency ~reps
                                      ~seed:(sub_seed s.seed i) ~days ())
                              in
                              incr searches;
                              search_tasks := !search_tasks + (Layers.dequeued acc - before);
                              ( Printf.sprintf "fig3/%s/%g" (Strategy.name strategy) mtbf,
                                b /. 1000.0 ))
                            E.Fig3.default_mtbf_years)
                        Strategy.paper_seven
                    in
                    let theory =
                      List.map
                        (fun mtbf ->
                          ( Printf.sprintf "fig3/Theoretical Model/%g" mtbf,
                            E.Fig3.min_bandwidth_theoretical ~node_mtbf_years:mtbf
                              ~target_efficiency ()
                            /. 1000.0 ))
                        E.Fig3.default_mtbf_years
                    in
                    series @ theory))
          in
          traced.walls <- wall :: traced.walls;
          traced.cpus <- cpu :: traced.cpus;
          check_figure c figures ~expected:(Hashtbl.find_opt plain_figures i) i got);
      let iterations = List.length traced.walls in
      Layers.record_pool t acc ~iterations;
      (* Without a store every pool task simulates one strategy point and
         its baseline. *)
      Layers.set t "runner.simulated" (float_of_int !search_tasks /. float_of_int iterations);
      Layers.set t "runner.baselines" (float_of_int !search_tasks /. float_of_int iterations);
      Layers.set t "fig3.searches" (float_of_int !searches /. float_of_int iterations);
      Layers.set t "fig3.simulated_per_search" (float_of_int !search_tasks /. float_of_int !searches);
      (* Replay each search's answer probe through the runner's tracer for
         the generate / baseline / simulate split and the probe's accuracy;
         replay each strategy's first probe point in the simulator. *)
      let probe_tracer = Tracing.create () in
      let outcomes =
        List.concat_map
          (fun strategy ->
            List.map
              (fun mtbf ->
                let key = Printf.sprintf "fig3/%s/%g" (Strategy.name strategy) mtbf in
                let spec =
                  probe_spec s env ~strategy ~mtbf ~bandwidth:(List.assoc key first *. 1000.0)
                in
                (spec, E.Runner.run ~pool:env.pool ~tracer:probe_tracer spec))
              E.Fig3.default_mtbf_years)
          Strategy.paper_seven
      in
      Layers.record_runner_spans t probe_tracer ~iterations:(List.length outcomes);
      Layers.set t "runner.ci95_halfwidth_max"
        (List.fold_left (fun acc (_, o) -> Float.max acc (Campaign.ci95_max o)) 0.0 outcomes);
      let pts = List.concat_map (fun (spec, _) -> Campaign.points spec) outcomes in
      let sample =
        List.filteri (fun i _ -> i mod List.length E.Fig3.default_mtbf_years = 0) outcomes
        |> List.map (fun (spec, o) ->
               let p = List.hd (Campaign.points spec) in
               (p, (Campaign.ratios o).(0)))
      in
      List.iter2
        (fun (_, r) (r1, r2) ->
          let ok = same r1 r && same r2 r1 in
          if not ok then note c "replayed probe point differs from the runner's";
          op c ok)
        sample
        (Layers.replay_points t (List.map fst sample));
      Layers.record_cell_key t pts;
      Layers.record_bound t
        (List.map (fun ((spec : E.Spec.t), _) -> spec.E.Spec.platform) outcomes);
      let dir = fresh_dir s "store" in
      let store = E.Store.open_ dir in
      List.iter
        (fun p ->
          let key = Layers.key_of p in
          E.Store.add store ~key ~ratio:0.25 (Layers.record_json ~key 0.25))
        pts;
      Layers.record_store_replays s t ~filled_dir:dir ~keys:(List.map Layers.key_of pts);
      let spec, o = List.hd outcomes in
      Layers.record_protocol t spec (Layers.campaign_reply o));
  Layers.finish s t tracer ~gc0 ~iterations:(List.length traced.walls) ~plain ~traced
