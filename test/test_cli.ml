(* The command line, driven through the built ncdrf executable: flag
   values out of range and setup that cannot succeed are usage errors
   (exit 2, one diagnostic on stderr) in every command, never an
   uncaught exception, and `ncdrf bench example` and the quick figure
   runs still print the paper's tables byte for byte. *)

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let here = Filename.dirname Sys.executable_name
let ncdrf = Filename.concat here "../bin/ncdrf.exe"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run ncdrf with [args]; returns (exit code, stdout, stderr). *)
let run args =
  let out = Filename.temp_file "ncdrf-cli" ".out" in
  let err = Filename.temp_file "ncdrf-cli" ".err" in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ out; err ]) @@ fun () ->
  let open_w path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let fd_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let fd_out = open_w out and fd_err = open_w err in
  let pid =
    Unix.create_process ncdrf (Array.of_list (ncdrf :: args)) fd_in fd_out fd_err
  in
  List.iter Unix.close [ fd_in; fd_out; fd_err ];
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + s
  in
  (code, read_file out, read_file err)

let lines s = List.filter (( <> ) "") (String.split_on_char '\n' s)

(* [args] must be refused as a usage error: exit 2, and with [one_line]
   exactly one line of diagnosis on stderr. *)
let check_usage_error ?(one_line = false) args =
  let name = String.concat " " args in
  let code, _, err = run args in
  check_int (name ^ ": exit code") 2 code;
  check_bool (name ^ ": no uncaught exception") false
    (Helpers.contains err "uncaught exception");
  if one_line then check_int (name ^ ": one line on stderr") 1 (List.length (lines err))

let loop_file = Filename.concat here "../loops/examples.loop"

let test_machine_flags_out_of_range () =
  List.iter (check_usage_error ~one_line:true)
    [
      [ "suite"; "--size"; "5"; "--clusters"; "0" ];
      [ "suite"; "--size"; "5"; "--read-ports"; "0" ];
      [ "suite"; "--size"; "5"; "--latency"; "0" ];
      [ "schedule"; loop_file; "--clusters"; "0" ];
      [ "schedule"; loop_file; "--write-ports"; "0" ];
      [ "bench"; "example"; "--clusters"; "0" ];
      [ "bench"; "example"; "--read-ports"; "0" ];
    ]

let test_unopenable_cache_dir () =
  let socket = Filename.concat (Filename.get_temp_dir_name ()) "ncdrf-cli-never.sock" in
  List.iter (check_usage_error ~one_line:true)
    [
      [ "suite"; "--size"; "5"; "--cache-dir"; "/proc/nope/x" ];
      [ "bench"; "example"; "--cache-dir"; "/proc/nope/x" ];
      [ "serve"; "--socket"; socket; "--cache-dir"; "/proc/nope/x" ];
    ];
  check_bool "serve never bound its socket" false (Sys.file_exists socket)

let test_bench_bad_arguments () =
  List.iter check_usage_error
    [
      [ "bench"; "nosuch" ];
      [ "bench"; "example"; "--shard"; "2/2" ];
      [ "bench"; "example"; "--spill-batch"; "0" ];
      [ "bench"; "example"; "-j"; "2" ];
    ]

let test_bad_inject_spec () =
  let socket = Filename.concat (Filename.get_temp_dir_name ()) "ncdrf-cli-never.sock" in
  List.iter check_usage_error
    [
      [ "suite"; "--size"; "5"; "--inject"; "stage=nope" ];
      [ "bench"; "example"; "--inject"; "bogus" ];
      [ "serve"; "--socket"; socket; "--inject"; "stage=nope" ];
    ]

let test_bench_example_golden () =
  let code, out, _ = run [ "bench"; "example" ] in
  check_int "exit code" 0 code;
  let expected = read_file (Filename.concat here "bench_example.expected") in
  check_string "worked-example tables" expected out

(* The paper's figures end to end: Swapped at k = 2, 3 and 4, under
   spilling, and the MaxLive-vs-exact swap-estimate ablation, pinned to
   the output of the whole-recompute swap pass. *)
let test_bench_figures_golden () =
  let code, out, _ =
    run
      [ "bench"; "fig6"; "fig7"; "fig8"; "fig9"; "ablation"; "cluster-sweep"; "--quick";
        "--jobs"; "1" ]
  in
  check_int "exit code" 0 code;
  let expected = read_file (Filename.concat here "figs_quick.expected") in
  check_string "figures 6-9, ablation, cluster sweep" expected out

(* One meaning of --clusters 1 across commands: Config.of_spec's
   unified machine (the dual's resources in one file). *)
let test_bench_one_cluster_is_unified () =
  let code, out, _ = run [ "bench"; "cost"; "--clusters"; "1" ] in
  check_int "exit code" 0 code;
  check_bool "unified machine" true (Helpers.contains out "machine: unified-L6 ")

let suite =
  [
    Alcotest.test_case "machine flags out of range exit 2" `Quick
      test_machine_flags_out_of_range;
    Alcotest.test_case "unopenable --cache-dir exits 2" `Quick test_unopenable_cache_dir;
    Alcotest.test_case "bench refuses bad arguments" `Quick test_bench_bad_arguments;
    Alcotest.test_case "bad --inject exits 2 everywhere" `Quick test_bad_inject_spec;
    Alcotest.test_case "bench example output is unchanged" `Quick test_bench_example_golden;
    Alcotest.test_case "bench --clusters 1 is the unified machine" `Quick
      test_bench_one_cluster_is_unified;
    Alcotest.test_case "bench figures output is unchanged" `Quick test_bench_figures_golden;
  ]
