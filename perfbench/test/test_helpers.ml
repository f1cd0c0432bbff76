module H = Perfbench_helpers

let close = Alcotest.float 1e-9

let test_quantile () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  Alcotest.check close "min" 1.0 (H.quantile xs 0.0);
  Alcotest.check close "max" 4.0 (H.quantile xs 1.0);
  Alcotest.check close "median interpolates" 2.5 (H.median xs);
  Alcotest.check close "q1" 1.75 (H.quantile xs 0.25)

let test_tail_percentile () =
  let check n p = Alcotest.(check int) (Printf.sprintf "n=%d" n) p (H.tail_percentile n) in
  (* 10 samples beyond p95 need 200 samples; more never goes past p95. *)
  check 200 95;
  check 1000 95;
  check 199 94;
  check 100 90;
  check 30 66;
  (* Below 20 samples only the median is reported. *)
  check 20 50;
  check 19 50;
  check 1 50

let test_tail_counts_beyond () =
  (* Whatever n, at least ten samples lie beyond the reported percentile
     once the median is passed. *)
  List.iter
    (fun n ->
      let p = H.tail_percentile n in
      if p > 50 then
        Alcotest.(check bool)
          (Printf.sprintf "n=%d p=%d keeps 10 beyond" n p)
          true
          (float_of_int n *. float_of_int (100 - p) /. 100.0 >= 10.0))
    [ 20; 21; 37; 64; 150; 199; 200; 201; 5000 ];
  let xs = Array.init 200 (fun i -> float_of_int (i + 1)) in
  let t = H.tail xs in
  Alcotest.(check int) "samples reported" 200 t.H.samples;
  Alcotest.(check int) "percentile reported" 95 t.H.percentile;
  Alcotest.check close "p95 value" (H.quantile xs 0.95) t.H.value

let test_ci95 () =
  (* n = 4, mean 2.5, sd = sqrt(5/3): half-width = t(3) * sd / 2. *)
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.check (Alcotest.float 1e-6) "t(3)" (3.182 *. sqrt (5.0 /. 3.0) /. 2.0)
    (H.ci95_halfwidth xs);
  Alcotest.check close "constant sample" 0.0 (H.ci95_halfwidth [| 0.3; 0.3; 0.3 |]);
  (* Large samples use the normal quantile. *)
  let big = Array.init 100 (fun i -> if i mod 2 = 0 then 0.0 else 1.0) in
  let sd = sqrt (25.0 /. 99.0) in
  Alcotest.check (Alcotest.float 1e-9) "normal" (1.960 *. sd /. 10.0) (H.ci95_halfwidth big);
  Alcotest.check_raises "one sample" (Invalid_argument "ci95_halfwidth: needs two samples")
    (fun () -> ignore (H.ci95_halfwidth [| 1.0 |]))

let span track start dur = { H.track; start; dur }

let test_self_times () =
  (* parent [0,10] with children [1,3] and [5,9]; grandchild [6,7] only
     counts against its direct parent. *)
  let spans =
    [| span 0 0.0 10.0; span 0 1.0 2.0; span 0 5.0 4.0; span 0 6.0 1.0 |]
  in
  let self = H.self_times spans in
  Alcotest.check close "parent" 4.0 self.(0);
  Alcotest.check close "leaf" 2.0 self.(1);
  Alcotest.check close "middle" 3.0 self.(2);
  Alcotest.check close "grandchild" 1.0 self.(3)

let test_self_times_tracks () =
  (* A span on another track never counts as a child, whatever its time. *)
  let self = H.self_times [| span 1 2.0 3.0; span 0 0.0 10.0; span 1 0.0 1.0 |] in
  Alcotest.check close "other track" 10.0 self.(1);
  Alcotest.check close "sibling a" 3.0 self.(0);
  Alcotest.check close "sibling b" 1.0 self.(2);
  (* Overlapping children are merged, not subtracted twice. *)
  let self = H.self_times [| span 0 0.0 10.0; span 0 2.0 4.0; span 0 2.0 4.0 |] in
  Alcotest.check close "merged" 6.0 self.(0)

let with_file contents f =
  let path = Filename.temp_file "perfbench" ".status" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let test_rss () =
  with_file "Name:\tmain.exe\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n"
    (fun path ->
      Alcotest.(check (option close)) "VmHWM in MiB" (Some 200.0) (H.peak_rss_mb ~path ()));
  with_file "Name:\tkthread\n" (fun path ->
      Alcotest.(check (option close)) "absent" None (H.peak_rss_mb ~path ()));
  match H.peak_rss_mb () with
  | Some mb -> Alcotest.(check bool) "own process is resident" true (mb > 0.0)
  | None -> ()

let () =
  Alcotest.run "perfbench_helpers"
    [
      ( "percentiles",
        [
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_percentile;
          Alcotest.test_case "ten beyond" `Quick test_tail_counts_beyond;
        ] );
      ("ci", [ Alcotest.test_case "ci95 half-width" `Quick test_ci95 ]);
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_times;
          Alcotest.test_case "tracks and overlap" `Quick test_self_times_tracks;
        ] );
      ("rss", [ Alcotest.test_case "VmHWM reader" `Quick test_rss ]);
    ]
