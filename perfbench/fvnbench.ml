(* One workload in one process:

     fvnbench.exe (churn|converge|verify) --seed N --seconds S
                  [--ops N] [--trace] [--spans FILE]

   prints one JSON object with the run's metrics, checks and digest.
   [--ops] replaces the time budget by an exact op count (a traced rerun
   of an untraced window); [--trace] times every layer from outside and
   reports per-layer metrics; [--spans] also writes the traced spans. *)

let usage () =
  prerr_endline
    "usage: fvnbench.exe (churn|converge|verify) --seed N --seconds S [--ops \
     N] [--trace] [--spans FILE]";
  exit 2

(* The FVN_* oracle switches select other code paths than the default
   configuration this benchmark measures. *)
let refuse_oracle_switches () =
  match
    List.filter
      (fun kv -> String.length kv > 4 && String.sub kv 0 4 = "FVN_")
      (Array.to_list (Unix.environment ()))
  with
  | [] -> ()
  | set ->
    prerr_endline ("fvnbench: refusing to run with " ^ String.concat " " set);
    exit 2

let () =
  refuse_oracle_switches ();
  let args = List.tl (Array.to_list Sys.argv) in
  let workload, rest = match args with w :: r -> (w, r) | [] -> usage () in
  let seed = ref None and seconds = ref None and ops = ref None in
  let traced = ref false and spans = ref None in
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: r -> seed := int_of_string_opt v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string_opt v; parse r
    | "--ops" :: v :: r -> ops := Some (int_of_string v); parse r
    | "--trace" :: r -> traced := true; parse r
    | "--spans" :: v :: r -> spans := Some v; parse r
    | _ -> usage ()
  in
  (try parse rest with Failure _ -> usage ());
  let seed, seconds =
    match (!seed, !seconds) with Some s, Some x -> (s, x) | _ -> usage ()
  in
  let run =
    match workload with
    | "churn" -> Churn.run
    | "converge" -> Converge.run
    | "verify" -> Verify.run
    | _ -> usage ()
  in
  match run ~seed ~seconds ~ops:!ops ~traced:!traced ~spans:!spans with
  | r -> Util.print_result ~workload ~seed ~traced:!traced r
  | exception Util.Bad_sample msg ->
    Printf.eprintf "fvnbench %s: %s\n" workload msg;
    exit 3
