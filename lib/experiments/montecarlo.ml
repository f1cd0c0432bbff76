open Cocheck_util
module Strategy = Cocheck_core.Strategy

type measurement = {
  strategy : Strategy.t;
  ratios : float array;
  stats : Stats.candlestick;
}

let rep_seed = Spec.rep_seed

let measure ~pool ~platform ?classes ~strategies ~reps ~seed ?(days = 60.0)
    ?failure_dist ?interference_alpha ?multilevel ?manifest_dir () =
  if reps <= 0 then invalid_arg "Montecarlo.measure: reps must be positive";
  let spec =
    Spec.make ~name:"montecarlo" ~platform ?classes ~strategies ~reps ~seed ~days
      ?failure_dist ?interference_alpha ?multilevel ()
  in
  let outcome = Runner.run ~pool ?store:(Option.map Store.open_ manifest_dir) spec in
  List.map
    (fun (r : Runner.cell_result) ->
      { strategy = r.Runner.strategy; ratios = r.ratios; stats = r.stats })
    outcome.Runner.results

let mean_waste ~pool ~platform ?classes ~strategy ~reps ~seed ?(days = 60.0)
    ?failure_dist ?interference_alpha ?multilevel ?manifest_dir () =
  match
    measure ~pool ~platform ?classes ~strategies:[ strategy ] ~reps ~seed ~days
      ?failure_dist ?interference_alpha ?multilevel ?manifest_dir ()
  with
  | [ m ] -> m.stats.Stats.mean
  | _ -> assert false
