(* Tests for the declarative campaign engine: exact spec JSON round-trips,
   digest stability of the results-store keys, cache-aware resumable
   execution, and bit-identity with the pre-engine Monte Carlo loop. *)

module Pool = Cocheck_parallel.Pool
module Platform = Cocheck_model.Platform
module App_class = Cocheck_model.App_class
module Strategy = Cocheck_core.Strategy
module Config = Cocheck_sim.Config
module Simulator = Cocheck_sim.Simulator
module Failure_trace = Cocheck_sim.Failure_trace
module Units = Cocheck_util.Units
module Json = Cocheck_obs.Json
module E = Cocheck_experiments

let checkf msg ?(eps = 1e-9) a b = Alcotest.(check (float eps)) msg a b

let tiny_platform ?(bandwidth = 1.0) ?(mtbf_years = 0.1) () =
  Platform.make ~name:"tiny" ~nodes:64 ~mem_per_node_gb:1.0 ~bandwidth_gbs:bandwidth
    ~node_mtbf_s:(Units.years mtbf_years)

let tiny_class =
  App_class.make ~name:"toy" ~workload_pct:100.0 ~walltime_s:(Units.hours 2.0) ~nodes:16
    ~input_pct:10.0 ~output_pct:10.0 ~ckpt_pct:50.0 ()

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_store f =
  let dir = Filename.temp_file "cocheck-test-store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Spec JSON round-trip (property)                                      *)
(* ------------------------------------------------------------------ *)

(* Fixed periods draw arbitrary floats on purpose: the structural strategy
   encoding must round-trip them exactly even where the display name's %g
   would collapse them. *)
let spec_gen =
  QCheck.Gen.(
    let rule =
      oneof
        [
          return Strategy.Daly;
          return Strategy.Optimal;
          map (fun p -> Strategy.Fixed p) (float_range 30.0 100_000.0);
          (* any magnitude, full mantissa *)
          map
            (fun (m, e) -> Strategy.Fixed (ldexp m e))
            (pair (float_range 0.5 1.0) (int_range (-30) 60));
        ]
    in
    let strategy =
      oneof
        [
          map (fun r -> Strategy.Oblivious r) rule;
          map (fun r -> Strategy.Ordered r) rule;
          map (fun r -> Strategy.Ordered_nb r) rule;
          return Strategy.Least_waste;
          return Strategy.Greedy_exposure;
          return Strategy.Baseline;
        ]
    in
    let platform =
      map
        (fun ((nodes, mem), (bw, mtbf)) ->
          Platform.make ~name:"qc" ~nodes ~mem_per_node_gb:mem ~bandwidth_gbs:bw
            ~node_mtbf_s:mtbf)
        (pair (pair (int_range 16 4096) (float_range 0.5 16.0))
           (pair (float_range 0.5 500.0) (float_range 1e4 1e9)))
    in
    let app_class =
      map
        (fun ((wall, nodes), (io, ckpt)) ->
          App_class.make ~name:"qc-class" ~workload_pct:100.0 ~walltime_s:wall ~nodes
            ~input_pct:io ~output_pct:io ~ckpt_pct:ckpt ())
        (pair (pair (float_range 600.0 1e5) (int_range 1 64))
           (pair (float_range 0.0 30.0) (float_range 1.0 80.0)))
    in
    let axis =
      oneof
        [
          return E.Spec.No_sweep;
          map (fun vs -> E.Spec.Mtbf_years vs)
            (list_size (int_range 1 4) (float_range 0.05 50.0));
          map (fun vs -> E.Spec.Bandwidth_gbs vs)
            (list_size (int_range 1 4) (float_range 0.5 500.0));
          (* kept only when the hierarchy has a buffer level, see below *)
          map (fun vs -> E.Spec.Flush_gbs vs)
            (list_size (int_range 1 4) (float_range 0.5 500.0));
        ]
    in
    (* Seeds of either sign; replication seeds then cross zero and change
       their digit count within a campaign. *)
    let seed =
      oneof [ int_range 0 1_000_000; int_range (-3_000_000) 0; int_range (-10) 10 ]
    in
    let failure_dist =
      oneof
        [
          return None;
          return (Some Failure_trace.Exponential);
          map (fun shape -> Some (Failure_trace.Weibull { shape })) (float_range 0.4 3.0);
          map (fun sigma -> Some (Failure_trace.Lognormal { sigma })) (float_range 0.0 2.0);
        ]
    in
    let snapshot_level =
      map
        (fun ((sl_period_s, sl_cost_s), (sl_recovery_s, sl_survival)) ->
          Config.Snapshot { Config.sl_period_s; sl_cost_s; sl_recovery_s; sl_survival })
        (pair (pair (float_range 60.0 3600.0) (float_range 1.0 60.0))
           (pair (float_range 1.0 120.0) (float_range 0.0 1.0)))
    in
    let buffer_level =
      map
        (fun ((bl_capacity_gb, bl_bandwidth_gbs), (bl_flush_gbs, bl_survival)) ->
          Config.Buffer
            { Config.bl_capacity_gb; bl_bandwidth_gbs; bl_flush_gbs; bl_survival })
        (pair (pair (float_range 10.0 1e6) (float_range 10.0 5000.0))
           (pair (opt (float_range 1.0 100.0)) (float_range 0.0 1.0)))
    in
    (* Snapshot tiers before buffer tiers, as Config.validate requires; the
       singleton-snapshot case exercises the legacy JSON encoding. *)
    let multilevel =
      opt
        (map
           (fun (snaps, bufs) -> { Config.levels = snaps @ bufs })
           (pair
              (list_size (int_range 0 2) snapshot_level)
              (list_size (int_range 0 2) buffer_level)))
    in
    let has_buffer = function
      | Some m ->
          List.exists (function Config.Buffer _ -> true | _ -> false) m.Config.levels
      | None -> false
    in
    map
      (fun (((platform, classes), (strategies, axis)),
            (((reps, seed), days), ((failure_dist, alpha), multilevel))) ->
        let axis =
          match axis with
          | E.Spec.Flush_gbs _ when not (has_buffer multilevel) -> E.Spec.No_sweep
          | a -> a
        in
        {
          E.Spec.name = "qc-campaign";
          platform;
          classes;
          strategies;
          axis;
          reps;
          seed;
          days;
          failure_dist;
          interference_alpha = alpha;
          multilevel;
        })
      (pair
         (pair
            (pair platform (opt (list_size (int_range 1 2) app_class)))
            (pair (list_size (int_range 1 3) strategy) axis))
         (pair
            (pair (pair (int_range 1 500) seed) (float_range 0.1 100.0))
            (pair
               (pair failure_dist (opt (float_range 0.0 2.0)))
               multilevel))))

let arb_spec =
  QCheck.make ~print:(fun s -> Json.to_string_pretty (E.Spec.to_json s)) spec_gen

let test_spec_roundtrip_prop =
  QCheck.Test.make ~name:"of_json (to_json s) = Ok s" ~count:200 arb_spec (fun s ->
      E.Spec.of_json (E.Spec.to_json s) = Ok s)

let test_spec_file_roundtrip_prop =
  (* Through the actual printer and parser, not just the JSON tree. *)
  QCheck.Test.make ~name:"load (save s) = Ok s" ~count:50 arb_spec (fun s ->
      let path = Filename.temp_file "cocheck-test-spec" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          E.Spec.save ~path s;
          E.Spec.load ~path = Ok s))

(* Staged keys against the unstaged oracle: every (cell, strategy) of
   the spec, at the first, second, middle and last replications and at
   the replications where the seed changes sign or digit count. *)
let test_keys_match_reference_prop =
  QCheck.Test.make ~name:"staged keys = reference composition" ~count:200 arb_spec
    (fun s ->
      let reps = s.E.Spec.reps in
      let digits rep =
        String.length (string_of_int (E.Spec.rep_seed ~seed:s.E.Spec.seed ~rep))
      in
      let boundaries =
        List.filter
          (fun rep -> rep > 0 && digits rep <> digits (rep - 1))
          (List.init reps Fun.id)
      in
      let check_reps =
        List.sort_uniq compare ([ 0; min 1 (reps - 1); reps / 2; reps - 1 ] @ boundaries)
      in
      let indexed l = List.mapi (fun i x -> (i, x)) l in
      let point_ok keys (ci, cell) (si, strategy) rep =
        let reference = Cell_key_reference.cell_key s ~cell ~strategy ~rep in
        E.Spec.key keys ~cell:ci ~strategy:si ~rep = reference
        && E.Spec.cell_key s ~cell ~strategy ~rep = reference
      in
      let outcome f = match f () with k -> Ok k | exception Invalid_argument e -> Error e in
      match outcome (fun () -> E.Spec.keys s) with
      | Ok keys ->
          List.for_all
            (fun cell ->
              List.for_all
                (fun strategy -> List.for_all (point_ok keys cell strategy) check_reps)
                (indexed s.E.Spec.strategies))
            (indexed (E.Spec.cells s))
      | Error e ->
          (* A point Config.make refuses (an empty hierarchy) is refused
             alike by both paths. *)
          outcome (fun () ->
              Cell_key_reference.cell_key s ~cell:(List.hd (E.Spec.cells s))
                ~strategy:(List.hd s.E.Spec.strategies) ~rep:0)
          = Error e)

let test_spec_name_strings_accepted () =
  (* Hand-written specs may give strategies by paper name. *)
  let spec =
    E.Spec.make ~platform:(tiny_platform ())
      ~strategies:[ Strategy.Least_waste; Strategy.Ordered_nb Strategy.Daly ]
      ~reps:1 ()
  in
  let rewrite = function
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (function
               | "strategies", _ ->
                   ( "strategies",
                     Json.List
                       [ Json.String "least-waste"; Json.String "ordered-nb-daly" ] )
               | f -> f)
             fields)
    | j -> j
  in
  match E.Spec.of_json (rewrite (E.Spec.to_json spec)) with
  | Ok s -> Alcotest.(check bool) "same spec" true (s = spec)
  | Error e -> Alcotest.fail e

let test_spec_validate () =
  let make ?(strategies = [ Strategy.Least_waste ]) ?axis ?(reps = 1) ?(days = 1.0) () =
    E.Spec.make ~platform:(tiny_platform ()) ~strategies ?axis ~reps ~days ()
  in
  let rejects msg f = Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ())) in
  rejects "Spec: empty strategy set" (fun () -> make ~strategies:[] ());
  rejects "Spec: reps must be positive" (fun () -> make ~reps:0 ());
  rejects "Spec: days must be positive" (fun () -> make ~days:0.0 ());
  rejects "Spec: empty MTBF axis" (fun () -> make ~axis:(E.Spec.Mtbf_years []) ());
  rejects "Spec: bandwidth values must be positive" (fun () ->
      make ~axis:(E.Spec.Bandwidth_gbs [ 40.0; -1.0 ]) ())

(* ------------------------------------------------------------------ *)
(* Digests                                                              *)
(* ------------------------------------------------------------------ *)

let digest_spec ?(name = "digest") ?(reps = 3) ?(seed = 5) ?(days = 1.0)
    ?(platform = tiny_platform ()) () =
  E.Spec.make ~name ~platform ~classes:[ tiny_class ]
    ~strategies:[ Strategy.Least_waste; Strategy.Ordered Strategy.Daly ]
    ~reps ~seed ~days ()

let key_of spec ?(strategy = Strategy.Least_waste) ?(rep = 1) () =
  E.Spec.cell_key spec ~cell:(List.hd (E.Spec.cells spec)) ~strategy ~rep

let test_digest_deterministic () =
  Alcotest.(check string) "same spec, same digest"
    (E.Spec.digest (digest_spec ()))
    (E.Spec.digest (digest_spec ()));
  Alcotest.(check string) "same point, same key"
    (key_of (digest_spec ()) ())
    (key_of (digest_spec ()) ())

let test_key_changes_with_result_fields () =
  let base = key_of (digest_spec ()) () in
  let differs what key = Alcotest.(check bool) what true (key <> base) in
  differs "seed" (key_of (digest_spec ~seed:6 ()) ());
  differs "days" (key_of (digest_spec ~days:2.0 ()) ());
  differs "platform"
    (key_of (digest_spec ~platform:(tiny_platform ~bandwidth:2.0 ()) ()) ());
  differs "strategy" (key_of (digest_spec ()) ~strategy:(Strategy.Ordered Strategy.Daly) ());
  differs "rep" (key_of (digest_spec ()) ~rep:2 ())

let test_key_survives_neutral_edits () =
  let base_spec = digest_spec () in
  let base = key_of base_spec () in
  (* Renaming the campaign or growing the replication count must keep
     existing records valid — that is what makes the store resumable and
     shareable — while the whole-spec digest does change. *)
  let renamed = digest_spec ~name:"renamed" () in
  let grown = digest_spec ~reps:10 () in
  Alcotest.(check string) "rename keeps keys" base (key_of renamed ());
  Alcotest.(check string) "more reps keeps keys" base (key_of grown ());
  Alcotest.(check bool) "rename changes spec digest" true
    (E.Spec.digest renamed <> E.Spec.digest base_spec);
  Alcotest.(check bool) "more reps changes spec digest" true
    (E.Spec.digest grown <> E.Spec.digest base_spec)

(* ------------------------------------------------------------------ *)
(* Level-list knobs: legacy decode, encoding shape, digest sensitivity  *)
(* ------------------------------------------------------------------ *)

module Manifest = Cocheck_obs.Manifest

let buffer_level ?flush ?(survival = 1.0) ?(cap = 100.0) ?(bw = 10.0) () =
  Config.Buffer
    {
      Config.bl_capacity_gb = cap;
      bl_bandwidth_gbs = bw;
      bl_flush_gbs = flush;
      bl_survival = survival;
    }

let ml_digest_spec ?name ?multilevel () =
  E.Spec.make ?name ~platform:(tiny_platform ()) ~classes:[ tiny_class ]
    ~strategies:[ Strategy.Least_waste ] ~reps:3 ~seed:5 ~days:1.0 ?multilevel ()

let test_legacy_multilevel_json_decodes () =
  (* A hand-written two-level spec in the pre-hierarchy format must keep
     decoding — to the singleton-snapshot level list. *)
  let legacy =
    "{\"local_period_s\":600.0,\"local_cost_s\":5.0,\"local_recovery_s\":30.0,\
     \"soft_fraction\":0.6}"
  in
  match Json.of_string legacy with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match Manifest.multilevel_of_json j with
      | Error e -> Alcotest.fail e
      | Ok m ->
          Alcotest.(check bool) "decodes to the singleton snapshot level" true
            (m
            = Config.local_level ~period_s:600.0 ~cost_s:5.0 ~recovery_s:30.0
                ~soft_fraction:0.6))

let test_singleton_snapshot_encodes_legacy_shape () =
  (* The singleton-snapshot list serializes in the legacy four-field shape
     (same members, no "levels" wrapper), so pre-hierarchy cell keys stay
     valid byte-for-byte; anything else gets the "levels" wrapper. *)
  let legacy =
    Manifest.multilevel_to_json
      (Config.local_level ~period_s:600.0 ~cost_s:5.0 ~recovery_s:30.0
         ~soft_fraction:0.6)
  in
  Alcotest.(check bool) "no levels wrapper" true (Json.member "levels" legacy = None);
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true (Json.member k legacy <> None))
    [ "local_period_s"; "local_cost_s"; "local_recovery_s"; "soft_fraction" ];
  let hier =
    Manifest.multilevel_to_json { Config.levels = [ buffer_level ~flush:5.0 () ] }
  in
  Alcotest.(check bool) "buffer levels get the wrapper" true
    (Json.member "levels" hier <> None);
  (* And both shapes round-trip exactly. *)
  List.iter
    (fun m ->
      Alcotest.(check bool) "round-trip" true
        (Manifest.multilevel_of_json (Manifest.multilevel_to_json m) = Ok m))
    [
      Config.local_level ~period_s:600.0 ~cost_s:5.0 ~recovery_s:30.0 ~soft_fraction:0.6;
      { Config.levels = [ buffer_level ~flush:5.0 () ] };
      {
        Config.levels =
          [
            Config.Snapshot
              {
                Config.sl_period_s = 120.0;
                sl_cost_s = 1.0;
                sl_recovery_s = 5.0;
                sl_survival = 0.5;
              };
            buffer_level ();
          ];
      };
    ]

let test_level_knobs_change_key () =
  let key multilevel = key_of (ml_digest_spec ~multilevel ()) () in
  let base = key { Config.levels = [ buffer_level () ] } in
  let differs what k = Alcotest.(check bool) what true (k <> base) in
  differs "flush bandwidth" (key { Config.levels = [ buffer_level ~flush:5.0 () ] });
  differs "survival" (key { Config.levels = [ buffer_level ~survival:0.5 () ] });
  differs "capacity" (key { Config.levels = [ buffer_level ~cap:200.0 () ] });
  differs "added snapshot tier"
    (key
       {
         Config.levels =
           [
             Config.Snapshot
               {
                 Config.sl_period_s = 120.0;
                 sl_cost_s = 1.0;
                 sl_recovery_s = 5.0;
                 sl_survival = 0.5;
               };
             buffer_level ();
           ];
       });
  (* Renaming the campaign is still a neutral edit with level knobs set. *)
  Alcotest.(check string) "rename keeps keys" base
    (key_of
       (ml_digest_spec ~name:"renamed"
          ~multilevel:{ Config.levels = [ buffer_level () ] } ())
       ())

(* Store keys pinned at their values before the burst buffer became a
   hierarchy level: a silent key change would turn every stored record
   into a miss (and perfbench skips points without a reference entry). *)
let oblivious_fixed = Strategy.Oblivious (Strategy.Fixed Strategy.default_fixed_period_s)

let first_key spec strategy =
  E.Spec.cell_key spec ~cell:(List.hd (E.Spec.cells spec)) ~strategy ~rep:0

let single_buffer_spec () =
  E.Spec.make ~name:"bb"
    ~platform:(Platform.cielo ~bandwidth_gbs:40.0 ~node_mtbf_years:5.0 ())
    ~strategies:[ oblivious_fixed; Strategy.Least_waste ] ~reps:2 ~seed:42 ~days:2.0
    ~multilevel:{ Config.levels = [ Config.buffer ~capacity_gb:100_000.0 ~bandwidth_gbs:1_000.0 () ] }
    ()

let test_pinned_cell_keys () =
  let fig1 =
    E.Spec.make ~name:"fig1" ~platform:(Platform.cielo ~node_mtbf_years:2.0 ())
      ~strategies:Strategy.paper_seven
      ~axis:(E.Spec.Bandwidth_gbs E.Fig1.default_bandwidths_gbs) ~reps:100 ~seed:42
      ~days:60.0 ()
  in
  let hierarchy_flush =
    E.Spec.make ~name:"hierarchy-flush"
      ~platform:(Platform.cielo ~bandwidth_gbs:40.0 ())
      ~strategies:[ Strategy.Least_waste; Strategy.Ordered_nb Strategy.Daly ]
      ~axis:(E.Spec.Flush_gbs [ 5.0; 10.0 ])
      ~multilevel:
        {
          Config.levels =
            [
              Config.Snapshot
                { Config.sl_period_s = 600.0; sl_cost_s = 5.0; sl_recovery_s = 30.0; sl_survival = 0.5 };
              Config.buffer ~flush_gbs:20.0 ~capacity_gb:250_000.0 ~bandwidth_gbs:1_000.0 ();
            ];
        }
      ~reps:20 ~seed:42 ~days:4.0 ()
  in
  Alcotest.(check string) "fig1 point" "fc4580800afb516bd173eba42f71563e"
    (first_key fig1 Strategy.Least_waste);
  Alcotest.(check string) "hierarchy-flush point" "f6310bdcd69dbae5a23a26aa525ad623"
    (first_key hierarchy_flush Strategy.Least_waste);
  Alcotest.(check string) "single buffer level" "7395625cdfc899fa302dc617b6ec0f87"
    (first_key (single_buffer_spec ()) oblivious_fixed)

(* A spec saved with the retired [burst_buffer] object loads as the same
   spec written with one buffer level: same keys, same ratios (pinned
   from the single-level run before the retirement). *)
let test_legacy_burst_buffer_json () =
  let legacy =
    "{\"schema\":\"cocheck.campaign\",\"version\":1,\"name\":\"bb\",\"platform\":\
     {\"name\":\"Cielo\",\"nodes\":17888,\"mem_per_node_gb\":15.988372093023257,\
     \"bandwidth_gbs\":40,\"node_mtbf_s\":157680000},\"strategies\":\
     [{\"oblivious\":{\"fixed_s\":3600}},\"least-waste\"],\"axis\":{\"sweep\":\"none\"},\
     \"reps\":2,\"seed\":42,\"days\":2,\
     \"burst_buffer\":{\"capacity_gb\":100000,\"bandwidth_gbs\":1000}}"
  in
  let spec =
    match Result.bind (Json.of_string legacy) E.Spec.of_json with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "decodes to one buffer level" true (spec = single_buffer_spec ());
  Alcotest.(check bool) "re-encodes without the legacy object" true
    (Json.member "burst_buffer" (E.Spec.to_json spec) = None);
  Alcotest.(check string) "least-waste key" "1193422e927c5021569033ae566f5ca4"
    (first_key spec Strategy.Least_waste);
  let ratios =
    Pool.with_pool ~num_domains:0 (fun pool ->
        List.concat_map
          (fun (r : E.Runner.cell_result) -> Array.to_list r.E.Runner.ratios)
          (E.Runner.run ~pool spec).E.Runner.results)
  in
  Alcotest.(check (list string)) "ratios bit-identical"
    [ "0x1.a7c485279a19ap-1"; "0x1.a5816b9bf9f6cp-1"; "0x1.bfd92625aac13p-3"; "0x1.21057f4219433p-3" ]
    (List.map (Printf.sprintf "%h") ratios);
  (* In a manifest config: appended after snapshot levels, refused beside
     buffer levels. *)
  let with_legacy (cfg : Config.t) =
    match Manifest.config_to_json cfg with
    | Json.Obj fields ->
        Json.Obj
          (fields
          @ [
              ( "burst_buffer",
                Json.Obj [ ("capacity_gb", Json.Float 64.0); ("bandwidth_gbs", Json.Float 8.0) ] );
            ])
    | _ -> assert false
  in
  let snapshot = Config.local_level ~period_s:600.0 ~cost_s:5.0 ~recovery_s:30.0 ~soft_fraction:0.5 in
  let cfg multilevel =
    Config.make ~platform:(tiny_platform ()) ~classes:[ tiny_class ]
      ~strategy:Strategy.Least_waste ~days:1.0 ?multilevel ()
  in
  (match Manifest.config_of_json (with_legacy (cfg (Some snapshot))) with
  | Ok c ->
      Alcotest.(check bool) "buffer level after the snapshot level" true
        (c.Config.multilevel
        = Some
            {
              Config.levels =
                snapshot.Config.levels @ [ Config.buffer ~capacity_gb:64.0 ~bandwidth_gbs:8.0 () ];
            })
  | Error e -> Alcotest.fail e);
  match
    Manifest.config_of_json
      (with_legacy (cfg (Some { Config.levels = [ buffer_level () ] })))
  with
  | Error e ->
      Alcotest.(check string) "legacy object beside buffer levels"
        "manifest: burst_buffer and buffer levels are exclusive" e
  | Ok _ -> Alcotest.fail "a legacy burst_buffer beside buffer levels must be refused"

let test_flush_axis () =
  (match
     E.Spec.make ~platform:(tiny_platform ()) ~strategies:[ Strategy.Least_waste ]
       ~axis:(E.Spec.Flush_gbs [ 5.0 ]) ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "flush axis without a buffer level accepted");
  let spec =
    E.Spec.make ~name:"flush-axis" ~platform:(tiny_platform ())
      ~classes:[ tiny_class ] ~strategies:[ Strategy.Least_waste ]
      ~axis:(E.Spec.Flush_gbs [ 2.0; 8.0 ])
      ~multilevel:{ Config.levels = [ buffer_level () ] }
      ~reps:1 ~days:0.5 ()
  in
  Alcotest.(check int) "one cell per flush value" 2 (List.length (E.Spec.cells spec));
  Alcotest.(check string) "axis label" "Flush Bandwidth (GB/s)" (E.Spec.axis_label spec);
  Alcotest.(check bool) "axis round-trips" true
    (E.Spec.of_json (E.Spec.to_json spec) = Ok spec);
  let cfg =
    E.Spec.config spec ~cell:(List.hd (E.Spec.cells spec))
      ~strategy:Strategy.Least_waste ~rep:0
  in
  match cfg.Config.multilevel with
  | Some { Config.levels = [ Config.Buffer b ] } ->
      Alcotest.(check (option (float 0.0))) "cell overrides the flush bandwidth"
        (Some 2.0) b.Config.bl_flush_gbs
  | _ -> Alcotest.fail "expected one buffer level in the cell config"

(* ------------------------------------------------------------------ *)
(* Runner: cache, resume, status                                        *)
(* ------------------------------------------------------------------ *)

let cache_spec () =
  E.Spec.make ~name:"cache" ~platform:(tiny_platform ()) ~classes:[ tiny_class ]
    ~strategies:[ Strategy.Least_waste; Strategy.Ordered_nb Strategy.Daly ]
    ~axis:(E.Spec.Bandwidth_gbs [ 1.0; 2.0 ]) ~reps:2 ~seed:3 ~days:0.5 ()

let ratios o = List.map (fun (r : E.Runner.cell_result) -> r.E.Runner.ratios) o.E.Runner.results

let check_same_ratios msg a b =
  List.iter2 (fun ra rb -> Array.iteri (fun i r -> checkf msg ~eps:0.0 r rb.(i)) ra)
    (ratios a) (ratios b)

let test_cold_then_warm () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      with_temp_store (fun dir ->
          let spec = cache_spec () in
          let in_memory = E.Runner.run ~pool spec in
          let store = E.Store.open_ dir in
          let cold = E.Runner.run ~pool ~store spec in
          Alcotest.(check int) "cold simulates everything" 8 cold.E.Runner.simulated;
          Alcotest.(check int) "cold loads nothing" 0 cold.E.Runner.loaded;
          Alcotest.(check int) "one baseline per (cell, rep)" 4 cold.E.Runner.baselines;
          Alcotest.(check int) "8 records on disk" 8 (E.Store.record_count store);
          let warm = E.Runner.run ~pool ~store spec in
          Alcotest.(check int) "warm simulates nothing" 0 warm.E.Runner.simulated;
          Alcotest.(check int) "warm runs no baselines" 0 warm.E.Runner.baselines;
          Alcotest.(check int) "warm loads everything" 8 warm.E.Runner.loaded;
          check_same_ratios "store-independent ratios" in_memory cold;
          check_same_ratios "cache round-trips ratios bit-for-bit" cold warm;
          (* The whole figure — candlesticks included — must be
             bit-identical whether the points were simulated or loaded. *)
          Alcotest.(check bool) "warm figure = cold figure, bit for bit" true
            (E.Runner.to_figure warm = E.Runner.to_figure cold)))

let test_interrupted_resume () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      with_temp_store (fun dir ->
          let spec = cache_spec () in
          let cold = E.Runner.run ~pool ~store:(E.Store.open_ dir) spec in
          (* Deleting one record is equivalent to a campaign killed before
             writing it; rename-based writes mean no other partial state.
             The fresh open below models the separate process that resumes
             the campaign — the killed run's in-memory index died with it. *)
          let store = E.Store.open_ dir in
          let victim = ref "" in
          E.Store.iter_keys store (fun k -> victim := k);
          Sys.remove (E.Store.path_of_key store !victim);
          let p = E.Runner.status ~store spec in
          Alcotest.(check int) "one missing" 1 p.E.Runner.missing;
          Alcotest.(check int) "seven cached" 7 p.E.Runner.cached;
          let resumed = E.Runner.run ~pool ~store spec in
          Alcotest.(check int) "resume simulates the hole only" 1
            resumed.E.Runner.simulated;
          Alcotest.(check int) "resume reruns one baseline" 1 resumed.E.Runner.baselines;
          Alcotest.(check int) "resume loads the rest" 7 resumed.E.Runner.loaded;
          check_same_ratios "resumed campaign identical" cold resumed;
          let healed = E.Runner.status ~store spec in
          Alcotest.(check int) "store healed" 0 healed.E.Runner.missing))

let test_status_counts () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      with_temp_store (fun dir ->
          let spec = cache_spec () in
          let p = E.Runner.status spec in
          Alcotest.(check int) "no store: total" 8 p.E.Runner.total;
          Alcotest.(check int) "no store: all missing" 8 p.E.Runner.missing;
          let store = E.Store.open_ dir in
          let p = E.Runner.status ~store spec in
          Alcotest.(check int) "empty store: all missing" 8 p.E.Runner.missing;
          ignore (E.Runner.run ~pool ~store spec);
          let p = E.Runner.status ~store spec in
          Alcotest.(check int) "full store: all cached" 8 p.E.Runner.cached;
          Alcotest.(check int) "full store: none missing" 0 p.E.Runner.missing))

let test_corrupt_record_is_a_miss () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      with_temp_store (fun dir ->
          let spec = cache_spec () in
          let store = E.Store.open_ dir in
          let cold = E.Runner.run ~pool ~store spec in
          let victim = ref "" in
          E.Store.iter_keys store (fun k -> victim := k);
          let oc = open_out (E.Store.path_of_key store !victim) in
          output_string oc "{ truncated";
          close_out oc;
          (* A fresh open models the process that re-runs the campaign:
             its index is cold, so the corrupt record must demote to a
             miss and re-simulate. *)
          let store = E.Store.open_ dir in
          let rerun = E.Runner.run ~pool ~store spec in
          Alcotest.(check int) "corrupt record re-simulated" 1 rerun.E.Runner.simulated;
          check_same_ratios "repaired run identical" cold rerun))

(* ------------------------------------------------------------------ *)
(* Live progress stream and campaign tracing                            *)
(* ------------------------------------------------------------------ *)

let collect_progress () =
  let events = ref [] in
  ((fun ev -> events := ev :: !events), fun () -> List.rev !events)

let test_progress_stream () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      with_temp_store (fun dir ->
          let spec = cache_spec () in
          let store = E.Store.open_ dir in
          let on_progress, events = collect_progress () in
          let o = E.Runner.run ~pool ~store ~on_progress spec in
          let evs = events () in
          let seqs =
            List.filter_map
              (function E.Runner.Point { seq; _ } -> Some seq | _ -> None)
              evs
          in
          Alcotest.(check (list int)) "seq is 1..n in emission order"
            (List.init 8 (fun i -> i + 1)) seqs;
          let dones =
            List.filter_map
              (function E.Runner.Point { done_points; _ } -> Some done_points | _ -> None)
              evs
          in
          Alcotest.(check (list int)) "done_points counts up"
            (List.init 8 (fun i -> i + 1)) dones;
          List.iter
            (function
              | E.Runner.Point { total_points; source; _ } ->
                  Alcotest.(check int) "total is 8" 8 total_points;
                  Alcotest.(check bool) "cold run simulates" true (source = `Simulated)
              | E.Runner.Finished _ -> ())
            evs;
          (match List.rev evs with
          | E.Runner.Finished { simulated; loaded; total_points; baselines; _ } :: _ ->
              Alcotest.(check int) "finished: simulated" o.E.Runner.simulated simulated;
              Alcotest.(check int) "finished: loaded" 0 loaded;
              Alcotest.(check int) "finished: baselines" o.E.Runner.baselines baselines;
              Alcotest.(check int) "finished: total" 8 total_points
          | _ -> Alcotest.fail "last event must be Finished");
          (* Warm re-run: every point must stream as a cache hit. *)
          let on_progress, events = collect_progress () in
          ignore (E.Runner.run ~pool ~store ~on_progress spec);
          List.iter
            (function
              | E.Runner.Point { source; _ } ->
                  Alcotest.(check bool) "warm run streams cached" true (source = `Cached)
              | E.Runner.Finished { simulated; loaded; _ } ->
                  Alcotest.(check int) "warm finished: simulated" 0 simulated;
                  Alcotest.(check int) "warm finished: loaded" 8 loaded)
            (events ())))

let test_progress_json_roundtrip () =
  let events =
    [
      E.Runner.Point
        {
          seq = 3;
          elapsed_s = 1.25;
          cell = 2;
          x = Some 0.5;
          rep = 1;
          strategy = "Least-Waste";
          source = `Cached;
          done_points = 3;
          total_points = 28;
        };
      E.Runner.Point
        {
          seq = 4;
          elapsed_s = 2.0;
          cell = 0;
          x = None;
          rep = 0;
          strategy = "Ordered[Daly]";
          source = `Simulated;
          done_points = 4;
          total_points = 28;
        };
      E.Runner.Finished
        { elapsed_s = 9.5; simulated = 20; baselines = 4; loaded = 8; total_points = 28 };
    ]
  in
  List.iter
    (fun ev ->
      let j = E.Runner.progress_to_json ev in
      (* Through text, as `campaign status --follow` consumes it. *)
      match Json.of_string (Json.to_string j) with
      | Error e -> Alcotest.failf "reparse: %s" e
      | Ok j' -> (
          match E.Runner.progress_of_json j' with
          | Some ev' -> Alcotest.(check bool) "round-trips" true (ev = ev')
          | None -> Alcotest.fail "decoder rejected its own encoding"))
    events;
  Alcotest.(check bool) "unknown event is None" true
    (E.Runner.progress_of_json (Json.Obj [ ("event", Json.String "nope") ]) = None);
  Alcotest.(check bool) "non-object is None" true
    (E.Runner.progress_of_json (Json.String "x") = None)

let test_runner_tracer_records_cells () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let spec = cache_spec () in
      let tracer = Cocheck_obs.Tracing.create () in
      ignore (E.Runner.run ~pool ~tracer spec);
      let cells, nested =
        List.fold_left
          (fun (cells, nested) ev ->
            match ev with
            | Cocheck_obs.Span.Slice { name; _ }
              when name = "generate" || name = "baseline"
                   || (String.length name > 4 && String.sub name 0 4 = "sim:") ->
                (cells, nested + 1)
            | Cocheck_obs.Span.Slice { name; cat = "campaign"; args; _ } ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s carries a source arg" name)
                  true
                  (List.mem_assoc "source" args);
                (cells + 1, nested)
            | _ -> (cells, nested))
          (0, 0)
          (Cocheck_obs.Tracing.events tracer)
      in
      (* 2 axis points x 2 reps: one task slice per (cell, rep), each
         containing generate + baseline + one sim per strategy. *)
      Alcotest.(check int) "one campaign slice per (cell, rep)" 4 cells;
      Alcotest.(check int) "phase slices nest inside" 16 nested)

(* ------------------------------------------------------------------ *)
(* Bit-identity with the pre-engine Monte Carlo loop                    *)
(* ------------------------------------------------------------------ *)

(* The exact replication protocol the campaign engine replaced: derived
   seed, shared job specs, shared baseline, waste ratio against it. Any
   drift between this and Runner breaks reproducibility of published
   numbers, so equality is exact. *)
let legacy_ratio ~platform ~classes ~strategy ~seed ~days ~rep =
  let s = E.Spec.rep_seed ~seed ~rep in
  let cfg st = Config.make ~platform ~classes ~strategy:st ~seed:s ~days () in
  let baseline_cfg = cfg Strategy.Baseline in
  let specs = Simulator.generate_specs baseline_cfg in
  let baseline = Simulator.run ~specs baseline_cfg in
  let r = Simulator.run ~specs (cfg strategy) in
  Simulator.waste_ratio ~strategy:r ~baseline

let test_matches_legacy_loop () =
  Pool.with_pool ~num_domains:0 (fun pool ->
      let base = tiny_platform () in
      let strategies = [ Strategy.Least_waste; Strategy.Ordered Strategy.Daly ] in
      let mtbf_years = [ 0.1; 0.5 ] in
      let seed = 9 and days = 0.5 and reps = 2 in
      let spec =
        E.Spec.make ~name:"legacy" ~platform:base ~classes:[ tiny_class ] ~strategies
          ~axis:(E.Spec.Mtbf_years mtbf_years) ~reps ~seed ~days ()
      in
      let o = E.Runner.run ~pool spec in
      let results = Array.of_list o.E.Runner.results in
      List.iteri
        (fun ci y ->
          let platform = Platform.with_node_mtbf base (Units.years y) in
          List.iteri
            (fun si strategy ->
              let r = results.((ci * List.length strategies) + si) in
              for rep = 0 to reps - 1 do
                checkf "campaign = legacy loop, bit for bit" ~eps:0.0
                  (legacy_ratio ~platform ~classes:[ tiny_class ] ~strategy ~seed ~days
                     ~rep)
                  r.E.Runner.ratios.(rep)
              done)
            strategies)
        mtbf_years)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "cocheck.campaign"
    [
      ( "spec",
        qsuite [ test_spec_roundtrip_prop; test_spec_file_roundtrip_prop ]
        @ [
            Alcotest.test_case "name strings accepted" `Quick
              test_spec_name_strings_accepted;
            Alcotest.test_case "validation" `Quick test_spec_validate;
          ] );
      ( "digest",
        qsuite [ test_keys_match_reference_prop ]
        @ [
          Alcotest.test_case "deterministic" `Quick test_digest_deterministic;
          Alcotest.test_case "sensitive to result fields" `Quick
            test_key_changes_with_result_fields;
          Alcotest.test_case "stable under neutral edits" `Quick
            test_key_survives_neutral_edits;
          Alcotest.test_case "legacy two-level JSON decodes" `Quick
            test_legacy_multilevel_json_decodes;
          Alcotest.test_case "singleton snapshot keeps legacy shape" `Quick
            test_singleton_snapshot_encodes_legacy_shape;
          Alcotest.test_case "level knobs change keys" `Quick
            test_level_knobs_change_key;
          Alcotest.test_case "flush axis" `Quick test_flush_axis;
          Alcotest.test_case "pinned cell keys" `Quick test_pinned_cell_keys;
          Alcotest.test_case "legacy burst_buffer JSON" `Quick test_legacy_burst_buffer_json;
        ] );
      ( "runner",
        [
          Alcotest.test_case "cold then warm" `Slow test_cold_then_warm;
          Alcotest.test_case "interrupted resume" `Slow test_interrupted_resume;
          Alcotest.test_case "status counts" `Slow test_status_counts;
          Alcotest.test_case "corrupt record is a miss" `Slow
            test_corrupt_record_is_a_miss;
          Alcotest.test_case "bit-identical to legacy loop" `Slow
            test_matches_legacy_loop;
        ] );
      ( "progress",
        [
          Alcotest.test_case "stream shape and ordering" `Slow test_progress_stream;
          Alcotest.test_case "json round-trip" `Quick test_progress_json_roundtrip;
          Alcotest.test_case "tracer records cells" `Slow test_runner_tracer_records_cells;
        ] );
    ]
