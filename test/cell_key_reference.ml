(* The unstaged cell key, kept as the differential oracle for the staged
   key templates of [Spec.keys] / [Spec.cell_key]: build the whole point
   object — schema, the exact Config.t, the structural strategy encoding —
   render it compactly, hash it. Do not "improve" this file: its value is
   being the composition every stored record was named by. *)

module Json = Cocheck_obs.Json
module Manifest = Cocheck_obs.Manifest
module Spec = Cocheck_experiments.Spec

(* The structural encoding, read back out of a one-strategy spec's JSON. *)
let strategy_json (spec : Spec.t) strategy =
  match Json.member "strategies" (Spec.to_json { spec with Spec.strategies = [ strategy ] }) with
  | Some (Json.List [ j ]) -> j
  | _ -> failwith "cell_key_reference: no strategy encoding"

let cell_key spec ~cell ~strategy ~rep =
  Digest.to_hex
    (Digest.string
       (Json.to_string
          (Json.Obj
             [
               ("schema", Json.String "cocheck.cell/1");
               ("config", Manifest.config_to_json (Spec.config spec ~cell ~strategy ~rep));
               ("strategy", strategy_json spec strategy);
             ])))
