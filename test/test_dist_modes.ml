(* The dist differential cases that pin the view refresh mode
   themselves: incremental = from-scratch refresh, the golden corpus,
   and the view invariant against centralized evaluation, over every
   input of {!Dist_cases}.  Each input, and for the invariant each
   refresh mode, is its own case, so a failure names what it ran.
   They ignore [FVN_INCREMENTAL_VIEWS], so this executable runs once,
   outside the dist suite's from-scratch oracle pass. *)

module Store = Ndlog.Store
module Eval = Ndlog.Eval
module Runtime = Dist.Runtime

let checkb = Alcotest.(check bool)

(* Differential check, one case per input of the shared generator
   ({!Dist_cases}: localized view programs × topologies × sizes ×
   refresh/expiry interleavings): the incremental and from-scratch
   runtimes produce bit-identical per-node stores, global fixpoints,
   message traces, and lease tables. *)
let test_incremental_equivalence c () =
  let rt_i, rep_i = Dist_cases.run ~incremental_views:true c in
  let rt_s, rep_s = Dist_cases.run ~incremental_views:false c in
  let ok =
    rep_i.Runtime.stats.Netsim.Sim.quiesced
    && rep_s.Runtime.stats.Netsim.Sim.quiesced
    && Store.equal (Runtime.global_store rt_i) (Runtime.global_store rt_s)
    && rep_i.Runtime.total_inserts = rep_s.Runtime.total_inserts
    && Netsim.Sim.trace (Runtime.simulator rt_i)
       = Netsim.Sim.trace (Runtime.simulator rt_s)
    && List.for_all
         (fun nm ->
           Store.equal (Runtime.node_store rt_i nm) (Runtime.node_store rt_s nm)
           && Runtime.node_leases rt_i nm = Runtime.node_leases rt_s nm)
         (Dist_cases.nodes c)
  in
  if not ok then
    Alcotest.failf "%s: incremental and from-scratch runs differ"
      (Dist_cases.name c)

(* The golden corpus: one line per generator input with the
   incremental and from-scratch digests of its end state
   ({!Dist_cases.corpus_line}), captured from the boxed and the
   id-native executors, which agreed on every line.  Each input is its
   own case, so a drift names its input. *)
let corpus =
  lazy
    (In_channel.with_open_text "dist_corpus.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.index_opt line ' ' with
           | Some i -> Some (String.sub line 0 i, line)
           | None -> None))

let test_corpus c () =
  match List.assoc_opt (Dist_cases.name c) (Lazy.force corpus) with
  | None -> Alcotest.failf "%s: no golden line" (Dist_cases.name c)
  | Some expected ->
    Alcotest.(check string) "digests" expected (Dist_cases.corpus_line c)

(* The view invariant, against centralized boxed evaluation: at a
   quiesced end state, let F_m be the fixpoint of the view program over
   node m's non-view relations.  Then node n stores exactly the
   tuples of F_n it owns (or that have no owner) plus the tuples every
   other F_m ships to n. *)
let check_view_invariant c (rt, (rep : Runtime.run_report)) =
  let p = Dist_cases.program c in
  let view_preds, view_program, _ = Runtime.split_views p in
  let info = Ndlog.Analysis.analyze_exn p in
  let locs = Ndlog.Shard.loc_index_map view_program in
  let nodes = Dist_cases.nodes c in
  let fixpoint m =
    let s = Runtime.node_store rt m in
    let base =
      Store.restrict
        (List.filter (fun q -> not (List.mem q view_preds)) (Store.preds s))
        s
    in
    (m, (Eval.seminaive view_program info base).Eval.db)
  in
  let fixpoints = List.map fixpoint nodes in
  let owned pred f =
    Store.Tset.filter (fun t ->
        f (Ndlog.Shard.tuple_location (Hashtbl.find_opt locs pred) t))
  in
  checkb (Dist_cases.name c ^ " quiesced") true
    rep.Runtime.stats.Netsim.Sim.quiesced;
  List.iter
    (fun n ->
      List.iter
        (fun pred ->
          let expected =
            List.fold_left
              (fun acc (m, fm) ->
                let rel = Store.relation pred fm in
                Store.Tset.union acc
                  (if m = n then
                     owned pred (function Some o -> o = n | None -> true) rel
                   else owned pred (fun o -> o = Some n) rel))
              Store.Tset.empty fixpoints
          in
          let stored = Store.relation pred (Runtime.node_store rt n) in
          if not (Store.Tset.equal expected stored) then
            Alcotest.failf "%s: %s@%s stores %d tuples, views derive %d"
              (Dist_cases.name c) pred n
              (Store.Tset.cardinal stored)
              (Store.Tset.cardinal expected))
        view_preds)
    nodes

let test_view_invariant ~incremental_views c () =
  check_view_invariant c (Dist_cases.run ~incremental_views c)

let per_input f =
  List.map
    (fun c -> Alcotest.test_case (Dist_cases.name c) `Quick (f c))
    Dist_cases.all

let () =
  Alcotest.run "dist modes"
    [
      ( "incremental = from-scratch refresh (stores, traces, leases)",
        per_input test_incremental_equivalence );
      ("corpus", per_input test_corpus);
      ( "view invariant (incremental)",
        per_input (test_view_invariant ~incremental_views:true) );
      ( "view invariant (from-scratch)",
        per_input (test_view_invariant ~incremental_views:false) );
    ]
