(* The [serve-mixed] workload: a campaign service on a Unix socket with two
   client connections, driven in a closed loop by one load-generating
   thread with one request in flight at a time. Connection W sends warm
   queries of a Fig 1-shaped spec the store was filled with during set-up;
   connection C sends single-cell campaigns, each with a fresh seed, which
   simulate and write. A session is [cold_per_session] rounds of
   [warm_per_cold] warm queries followed by one cold campaign. *)

open Common
module E = Cocheck_experiments
module Pool = Cocheck_parallel.Pool
module Tracing = Cocheck_obs.Tracing
module Platform = Cocheck_model.Platform
module Strategy = Cocheck_core.Strategy
module Client = E.Service.Client

let warm_spec seed =
  E.Spec.make ~name:"serve-warm"
    ~platform:(Platform.cielo ~node_mtbf_years:2.0 ())
    ~strategies:Strategy.paper_seven
    ~axis:(E.Spec.Bandwidth_gbs E.Fig1.default_bandwidths_gbs)
    ~reps:10 ~seed ~days:2.5 ()

(* The [i]-th cold request of a run: one Fig 1 cell, its own seed. The
   seeds sit far from the warm spec's and
   [cold_reps] replication strides apart, so no two requests share a
   replication seed ([Spec.rep_seed]). *)
let cold_reps = 8

let cold_spec seed i =
  let bws = Array.of_list E.Fig1.default_bandwidths_gbs in
  E.Spec.make ~name:"serve-cold"
    ~platform:(Platform.cielo ~node_mtbf_years:2.0 ~bandwidth_gbs:bws.(i mod Array.length bws) ())
    ~strategies:Strategy.paper_seven ~reps:cold_reps
    ~seed:(seed + 1_000_000_000_000 + (cold_reps * 1_000_003 * i))
    ~days:2.5 ()

let cold_per_session = 10
let warm_per_cold = 3

(* Cold replies beyond this index are not compared with the reference
   (they stay checked for the simulated point count). *)
let referenced_cold = 40
(* Set-ups sampled before the run. Spreading them between sessions, as
   the batch workloads do, made the sessions after them slower. *)
let setup_count = 7

type env = {
  pool : Pool.t;
  dir : string;
  store : E.Store.t;
  spec : E.Spec.t;
  prefill : E.Runner.outcome;
  srv : E.Service.t;
  server : Thread.t;
  sock : string;
  w : Client.conn;
  c : Client.conn;
}

let setup s ?telemetry () =
  let pool = Pool.create ~num_domains:s.domains ?telemetry () in
  let dir = fresh_dir s "serve" in
  let store = E.Store.open_ (Filename.concat dir "store") in
  let spec = warm_spec s.seed in
  let prefill = E.Runner.run ~pool ~store spec in
  let sock = Filename.concat dir "s.sock" in
  let srv = E.Service.create ~pool ~store (E.Service.listen_unix sock) in
  (* The service and its connection threads share the load generator's
     domain: one request is in flight at a time, and a single domain keeps
     every minor collection free of a cross-domain handshake. *)
  let server = Thread.create E.Service.run srv in
  let w = Client.connect_unix sock and c = Client.connect_unix sock in
  (match Client.request w E.Protocol.Ping with
  | E.Protocol.Pong -> ()
  | _ -> failwith "service did not answer ping");
  { pool; dir; store; spec; prefill; srv; server; sock; w; c }

let teardown env =
  Client.close env.w;
  Client.close env.c;
  E.Service.stop env.srv;
  Thread.join env.server;
  Pool.shutdown env.pool;
  rm_rf env.dir

(* What the replies of a phase reported, beside the latencies. *)
type replies = {
  mutable server_ms : float list;  (** the replies' own [elapsed_s] *)
  mutable transport_ms : float list;  (** client latency minus [elapsed_s] *)
  mutable cold_index : int;
  cold : (int, (string * float) list) Hashtbl.t;  (** summaries by cold index *)
  mutable simulated : int;
  mutable baselines : int;
  mutable loaded : int;
  mutable overload : int;
}

let replies () =
  {
    server_ms = [];
    transport_ms = [];
    cold_index = 0;
    cold = Hashtbl.create 64;
    simulated = 0;
    baselines = 0;
    loaded = 0;
    overload = 0;
  }

let summary_values prefix (cells : E.Protocol.cell_summary list) =
  List.concat_map
    (fun (cs : E.Protocol.cell_summary) ->
      let k f =
        Printf.sprintf "%s/%s/%s/%s" prefix
          (match cs.E.Protocol.x with Some x -> Printf.sprintf "%g" x | None -> "-")
          cs.E.Protocol.strategy f
      in
      [
        (k "mean", cs.E.Protocol.mean);
        (k "median", cs.E.Protocol.median);
        (k "q1", cs.E.Protocol.q1);
        (k "q3", cs.E.Protocol.q3);
      ])
    cells

(* One request on a client's connection: latency, reply accounting and
   the check. A reply other than a campaign result — [Error], [Overload] —
   fails. *)
let request c sm rp conn spec ~tracer ~track ~kind ~check =
  let t0 = now () in
  let resp =
    Tracing.span tracer ~track kind (fun () ->
        Client.request conn (E.Protocol.Campaign { spec; progress = false }))
  in
  let ms = (now () -. t0) *. 1e3 in
  sm.requests <- sm.requests + 1;
  (match kind with
  | "warm" -> sm.warm_ms <- ms :: sm.warm_ms
  | _ -> sm.cold_ms <- ms :: sm.cold_ms);
  let ok =
    match resp with
    | E.Protocol.Campaign_result r ->
        rp.server_ms <- (r.elapsed_s *. 1e3) :: rp.server_ms;
        rp.transport_ms <- (ms -. (r.elapsed_s *. 1e3)) :: rp.transport_ms;
        rp.simulated <- rp.simulated + r.simulated;
        rp.baselines <- rp.baselines + r.baselines;
        rp.loaded <- rp.loaded + r.loaded;
        check ~simulated:r.simulated ~baselines:r.baselines r.cells
    | E.Protocol.Overload _ ->
        rp.overload <- rp.overload + 1;
        note c "%s request refused: overload" kind;
        false
    | E.Protocol.Error e ->
        note c "%s request failed: %s" kind e;
        false
    | _ ->
        note c "%s request: unexpected reply" kind;
        false
  in
  op c ok

(* One closed-loop session. A cold reply whose index an earlier phase
   ([prior]) also answered must equal that reply bit for bit. *)
let session s c env sm rp ?(tracer = Tracing.disabled) ?(prior = Hashtbl.create 0) ~expected_warm
    () =
  let warm () =
    request c sm rp env.w env.spec ~tracer ~track:2000 ~kind:"warm"
      ~check:(fun ~simulated ~baselines cells ->
        let ok =
          simulated = 0 && baselines = 0 && same_values (summary_values "warm" cells) expected_warm
        in
        if not ok then note c "warm reply simulated %d points or differs" simulated;
        ok)
  in
  let cold () =
    let i = rp.cold_index in
    rp.cold_index <- i + 1;
    let spec = cold_spec s.seed i in
    let points = List.length spec.E.Spec.strategies * spec.E.Spec.reps in
    request c sm rp env.c spec ~tracer ~track:2001 ~kind:"cold"
      ~check:(fun ~simulated ~baselines:_ cells ->
        let got = summary_values (Printf.sprintf "cold/%d" i) cells in
        Hashtbl.replace rp.cold i got;
        let ok =
          simulated = points
          && (match Hashtbl.find_opt prior i with Some e -> same_values got e | None -> true)
          && (i >= referenced_cold
             || List.fold_left (fun ok (k, v) -> point c k v && ok) true got)
        in
        if not ok then note c "cold reply %d simulated %d points or differs" i simulated;
        ok)
  in
  let (), wall, cpu =
    timed (fun () ->
        for _ = 1 to cold_per_session do
          for _ = 1 to warm_per_cold do
            warm ()
          done;
          cold ()
        done)
  in
  sm.walls <- wall :: sm.walls;
  sm.cpus <- cpu :: sm.cpus

(* The summaries the service must answer warm queries with, from the
   set-up's own campaign; its points are checked against the reference. *)
let expected_warm c env =
  op c
    (List.fold_left2
       (fun ok p r -> point c (Layers.key_of p) r && ok)
       true (Campaign.points env.spec)
       (Array.to_list (Campaign.ratios env.prefill)));
  match Layers.campaign_reply env.prefill with
  | E.Protocol.Campaign_result r -> summary_values "warm" r.cells
  | _ -> assert false

let phase s c env sm rp ~seconds ?tracer ?prior () =
  let expected_warm = expected_warm c env in
  measured_phase sm ~seconds (fun _ -> session s c env sm rp ?tracer ?prior ~expected_warm ())

let run_untraced s c =
  let walls = setup_samples ~batches:(setup_count - 1) ~per_batch:1 (setup s) teardown in
  let env, wall = setup_batch ~per_batch:1 (setup s) teardown in
  let sm = samples () in
  Fun.protect
    ~finally:(fun () -> teardown env)
    (fun () -> phase s c env sm (replies ()) ~seconds:s.seconds ());
  end_to_end ~setup_walls:(wall :: walls) sm

let stats conn =
  match Client.request conn E.Protocol.Stats with
  | E.Protocol.Stats_result r -> Some (r.store, r.inflight, r.served)
  | _ -> None

(* The traced run: an untraced phase, then a traced phase whose pool is
   observed, whose requests are spans, and beside which a third connection
   samples the service's [Stats] for its in-flight high-water mark. Each
   traced cold reply must equal the untraced reply of the same index. *)
let run_traced s c =
  let t = Layers.create () in
  let half = s.seconds /. 2.0 in
  let plain = samples () and plain_rp = replies () in
  let env = setup s () in
  let plain_prefill = env.prefill in
  Fun.protect
    ~finally:(fun () -> teardown env)
    (fun () -> phase s c env plain plain_rp ~seconds:half ());
  let tracer = Tracing.create () in
  let acc = Layers.pool_acc () in
  let gc0 = Layers.gc_sample () in
  let env = setup s ~telemetry:(Layers.telemetry acc tracer) () in
  let ok = Campaign.same_ratios (Campaign.ratios env.prefill) (Campaign.ratios plain_prefill) in
  if not ok then note c "traced set-up campaign differs from the untraced one";
  op c ok;
  let traced = samples () and rp = replies () in
  Fun.protect
    ~finally:(fun () -> teardown env)
    (fun () ->
      let monitor = Client.connect_unix env.sock in
      let stop = Atomic.make false and inflight_max = ref 0 in
      let sampler =
        Thread.create
          (fun () ->
            while not (Atomic.get stop) do
              Option.iter (fun (_, inflight, _) -> inflight_max := max !inflight_max inflight) (stats monitor);
              Thread.delay 0.02
            done)
          ()
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          Thread.join sampler)
        (fun () -> phase s c env traced rp ~seconds:half ~tracer ~prior:plain_rp.cold ());
      let sessions = float_of_int (List.length traced.walls) in
      (match stats monitor with
      | Some (store, _, served) ->
          Layers.record_store t store;
          Layers.set t "service.served" (float_of_int served /. sessions)
      | None -> note c "no stats reply");
      Client.close monitor;
      Layers.per_iteration t
        [ "store.hits"; "store.misses"; "store.loads"; "store.writes"; "store.evictions" ]
        ~iterations:(List.length traced.walls);
      Layers.set t "service.inflight_max" (float_of_int !inflight_max);
      Layers.set t "service.overload" (float_of_int rp.overload /. sessions);
      Layers.set t "runner.simulated" (float_of_int rp.simulated /. sessions);
      Layers.set t "runner.baselines" (float_of_int rp.baselines /. sessions);
      Layers.set t "runner.loaded" (float_of_int rp.loaded /. sessions);
      Layers.set t "serve.server_ms_p50" (median_of rp.server_ms);
      Layers.set t "serve.transport_ms_p50" (median_of rp.transport_ms);
      Layers.record_pool t acc ~iterations:(List.length traced.walls);
      (* The service runs the runner without a tracer: split one warm and
         one cold campaign in-process, on the service's store. *)
      let runner_tracer = Tracing.create () in
      let cold = cold_spec s.seed rp.cold_index in
      ignore (E.Runner.run ~pool:env.pool ~store:env.store ~tracer:runner_tracer env.spec);
      ignore (E.Runner.run ~pool:env.pool ~store:env.store ~tracer:runner_tracer cold);
      Layers.record_runner_spans t runner_tracer ~iterations:2;
      (* Replay the first cold request's points against the stored ratios. *)
      let sample = List.filter (fun (p : Layers.point) -> p.Layers.rep = 0) (Campaign.points (cold_spec s.seed 0)) in
      List.iter2
        (fun p (r1, r2) ->
          let ok = E.Store.find env.store (Layers.key_of p) = Some r1 && same r2 r1 in
          if not ok then note c "replayed cold point differs from the stored ratio";
          op c ok)
        sample (Layers.replay_points t sample);
      let pts = Campaign.points env.spec in
      Layers.record_cell_key t pts;
      Layers.record_bound t (List.map (fun (cl : E.Spec.cell) -> cl.E.Spec.platform) (E.Spec.cells env.spec));
      Layers.record_store_replays s t ~filled_dir:(E.Store.dir env.store) ~keys:(List.map Layers.key_of pts);
      Layers.record_protocol t env.spec (Layers.campaign_reply env.prefill);
      Layers.set t "runner.ci95_halfwidth_max" (Campaign.ci95_max env.prefill));
  Layers.finish s t tracer ~gc0 ~iterations:(List.length traced.walls) ~plain ~traced
