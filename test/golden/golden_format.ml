(* Canonical, bit-exact textual form of a [Simulator.result], shared by the
   golden-trace generator (test/golden/gen_golden.ml) and the regression
   test (test/test_golden.ml). Floats are printed as hexadecimal literals
   ([%h]) so two results compare equal exactly when every field is
   bit-identical — the contract the arbiter decomposition must preserve. *)

module Platform = Cocheck_model.Platform
module Strategy = Cocheck_core.Strategy
module Config = Cocheck_sim.Config
module Simulator = Cocheck_sim.Simulator
module Metrics = Cocheck_sim.Metrics

let seeds = [ 11; 42; 1337 ]
let days = 2.0
let bandwidth_gbs = 40.0

let config ~strategy ~seed =
  Config.make ~platform:(Platform.cielo ~bandwidth_gbs ()) ~strategy ~seed ~days ()

let f v = Printf.sprintf "%h" v

let named_floats pairs =
  String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s:%s" k (f v)) pairs)

let named_ints pairs =
  String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) pairs)

let result_block ?(suffix = "") ~strategy ~seed (r : Simulator.result) =
  String.concat "\n"
    [
      Printf.sprintf "run %s seed=%d%s" (Strategy.name strategy) seed suffix;
      "progress_ns=" ^ f r.progress_ns;
      "waste_ns=" ^ f r.waste_ns;
      "enrolled_ns=" ^ f r.enrolled_ns;
      "by_kind="
      ^ named_floats (List.map (fun (k, v) -> (Metrics.kind_name k, v)) r.by_kind);
      Printf.sprintf "failures_seen=%d" r.failures_seen;
      Printf.sprintf "failures_hitting_jobs=%d" r.failures_hitting_jobs;
      Printf.sprintf "ckpts_committed=%d" r.ckpts_committed;
      Printf.sprintf "ckpts_aborted=%d" r.ckpts_aborted;
      Printf.sprintf "restarts=%d" r.restarts;
      Printf.sprintf "jobs_started=%d" r.jobs_started;
      Printf.sprintf "jobs_completed=%d" r.jobs_completed;
      Printf.sprintf "events=%d" r.events;
      "mean_ckpt_interval=" ^ named_floats r.mean_ckpt_interval;
      Printf.sprintf "specs_total=%d" r.specs_total;
      Printf.sprintf "bb_absorbed=%d" r.bb_absorbed;
      Printf.sprintf "bb_spilled=%d" r.bb_spilled;
      "mean_ckpt_wait=" ^ named_floats r.mean_ckpt_wait;
      "utilization=" ^ f r.utilization;
      "io_busy_fraction=" ^ f r.io_busy_fraction;
      "restarts_by_class=" ^ named_ints r.restarts_by_class;
      "lost_work_by_class=" ^ named_floats r.lost_work_by_class;
    ]

(* Checkpoint-hierarchy cases, appended after the paper seven: a single
   buffer level small enough to spill (drains serialized through the PFS),
   and node-local snapshots above a buffer with a dedicated flush edge. *)
let buffer_level ~capacity_gb ~flush_gbs =
  Config.Buffer
    {
      Config.bl_capacity_gb = capacity_gb;
      bl_bandwidth_gbs = 1_000.0;
      bl_flush_gbs = flush_gbs;
      bl_survival = 1.0;
    }

let hierarchy_cases =
  let spill = { Config.levels = [ buffer_level ~capacity_gb:100_000.0 ~flush_gbs:None ] } in
  let snapshot_flush =
    {
      Config.levels =
        [
          Config.Snapshot
            { Config.sl_period_s = 600.0; sl_cost_s = 5.0; sl_recovery_s = 30.0; sl_survival = 0.5 };
          buffer_level ~capacity_gb:250_000.0 ~flush_gbs:(Some 20.0);
        ];
    }
  in
  [
    ("buffer-spill", Strategy.Oblivious (Strategy.Fixed Strategy.default_fixed_period_s), spill);
    ("buffer-spill", Strategy.Least_waste, spill);
    ("snapshot+flush", Strategy.Least_waste, snapshot_flush);
    ("snapshot+flush", Strategy.Ordered_nb Strategy.Daly, snapshot_flush);
  ]

let hierarchy_seed = 42

let hierarchy_block (label, strategy, multilevel) =
  let seed = hierarchy_seed in
  let cfg =
    Config.make
      ~platform:(Platform.cielo ~bandwidth_gbs ~node_mtbf_years:5.0 ())
      ~strategy ~seed ~days ~multilevel ()
  in
  result_block ~suffix:(" hierarchy=" ^ label) ~strategy ~seed (Simulator.run cfg)

let all_runs () =
  let blocks =
    List.concat_map
      (fun strategy ->
        List.map
          (fun seed ->
            result_block ~strategy ~seed (Simulator.run (config ~strategy ~seed)))
          seeds)
      Strategy.paper_seven
  in
  String.concat "\n\n" (blocks @ List.map hierarchy_block hierarchy_cases) ^ "\n"
