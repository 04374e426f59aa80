(* Tests for the distributed NDlog runtime: distributed execution must
   agree with the centralized evaluator, soft state must expire, and the
   distance-vector state machine must count to infinity after a failure
   (Section 3.1's claim, reproduced by experiment E2). *)

module Ast = Ndlog.Ast
module Store = Ndlog.Store
module Eval = Ndlog.Eval
module Programs = Ndlog.Programs
module Localize = Ndlog.Localize
module V = Ndlog.Value
module Topo = Netsim.Topology
module Runtime = Dist.Runtime
module Dv = Dist.Dv

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let topo_of_links = Dist_cases.topo_of_links
let localized = Dist_cases.localized

(* Run a program distributed and centralized: whether the distributed
   run quiesced, and each relation among [preds] whose tuples differ,
   with its centralized and distributed sizes. *)
let dist_vs_centralized ~preds program links =
  let full = Programs.with_links program links in
  let central = Eval.run_exn full in
  let rt = Runtime.create (topo_of_links links) (localized full) in
  Runtime.load_facts rt;
  let report = Runtime.run rt in
  let dist_db = Runtime.global_store rt in
  ( report.Runtime.stats.Netsim.Sim.quiesced,
    List.filter_map
      (fun pred ->
        let a = Store.relation pred central.Eval.db in
        let b = Store.relation pred dist_db in
        if Store.Tset.equal a b then None
        else Some (pred, Store.Tset.cardinal a, Store.Tset.cardinal b))
      preds )

(* Run a program distributed and centralized; compare relations. *)
let compare_dist_centralized ?(preds = [ "path"; "bestPath"; "bestPathCost" ])
    program links =
  let quiesced, differing = dist_vs_centralized ~preds program links in
  checkb "distributed run quiesced" true quiesced;
  List.iter
    (fun (pred, central, dist) ->
      Alcotest.failf "relation %s differs:@.central=%d tuples, dist=%d tuples"
        pred central dist)
    differing

let test_dist_line () =
  compare_dist_centralized (Programs.path_vector ()) (Programs.line_links 3)

let test_dist_ring () =
  compare_dist_centralized (Programs.path_vector ()) (Programs.ring_links 5)

let test_dist_asymmetric () =
  let links =
    [
      Programs.link_fact "n0" "n1" 10;
      Programs.link_fact "n1" "n0" 10;
      Programs.link_fact "n0" "n2" 1;
      Programs.link_fact "n2" "n0" 1;
      Programs.link_fact "n2" "n1" 2;
      Programs.link_fact "n1" "n2" 2;
    ]
  in
  compare_dist_centralized (Programs.path_vector ()) links

let test_dist_random () =
  List.iter
    (fun seed ->
      compare_dist_centralized ~preds:[ "reachable" ] (Programs.reachability ())
        (Programs.random_links ~seed ~extra:2 6))
    [ 1; 5; 9 ]

let test_dist_reachability_scale () =
  compare_dist_centralized ~preds:[ "reachable" ] (Programs.reachability ())
    (Programs.ring_links 12)

let test_dist_best_path_values () =
  (* Check specific routing results at their owning node. *)
  let links = Programs.line_links 4 in
  let full = Programs.with_links (Programs.path_vector ()) links in
  let loc = localized full in
  let topo = topo_of_links links in
  let rt = Runtime.create topo loc in
  Runtime.load_facts rt;
  ignore (Runtime.run rt);
  let n0 = Runtime.node_store rt "n0" in
  let best =
    Store.tuples "bestPathCost" n0
    |> List.find_opt (fun t ->
           V.equal t.(0) (V.Addr "n0") && V.equal t.(1) (V.Addr "n3"))
  in
  (match best with
  | Some t -> checki "n0->n3 = 3" 3 (V.as_int t.(2))
  | None -> Alcotest.fail "no bestPathCost at n0");
  (* bestPath tuples for n0 live at n0, not elsewhere *)
  let n1 = Runtime.node_store rt "n1" in
  checkb "n1 has no n0-rooted bestPath" true
    (Store.tuples "bestPath" n1
    |> List.for_all (fun t -> not (V.equal t.(0) (V.Addr "n0"))))

let test_dist_message_accounting () =
  let links = Programs.line_links 3 in
  let full = Programs.with_links (Programs.path_vector ()) links in
  let loc = localized full in
  let rt = Runtime.create (topo_of_links links) loc in
  Runtime.load_facts rt;
  let report = Runtime.run rt in
  let stats = report.Runtime.stats in
  checkb "messages flowed" true (stats.Netsim.Sim.messages_delivered > 0);
  checkb "inserts happened" true (report.Runtime.total_inserts > 0)

let test_dist_rejects_unlocalized () =
  let p =
    Programs.with_links (Programs.path_vector ()) (Programs.line_links 2)
  in
  (* path_vector's r2 spans two locations: must be rejected raw. *)
  match Runtime.create (topo_of_links p.Ast.facts) p with
  | exception Runtime.Not_localized _ -> ()
  | _ -> Alcotest.fail "expected Not_localized"

(* ------------------------------------------------------------------ *)
(* Soft state in the distributed runtime. *)

let test_dist_soft_state_expiry () =
  (* Heartbeats propagate, then expire when the source stops refreshing
     (no refresh loop is installed here). *)
  let links = Programs.line_links 2 in
  let p = Programs.with_links (Programs.heartbeat ~lifetime:5) links in
  let loc = localized p in
  let rt = Runtime.create (topo_of_links links) loc in
  Runtime.load_facts rt;
  ignore (Runtime.run rt ~until:2.0);
  let alive_at node =
    Store.cardinal "aliveNeighbor" (Runtime.node_store rt node)
  in
  checkb "alive early" true (alive_at "n1" > 0);
  ignore (Runtime.run rt ~until:60.0);
  checki "expired later" 0 (alive_at "n1")

(* ------------------------------------------------------------------ *)
(* Inbox batching: the batched runtime must reach the centralized
   fixpoint. *)

(* Every relation the program derives, distributed (inbox-batched
   deliveries, group-at-a-time strands) and centralized ({!Eval}),
   over ring, grid, star and random topologies. *)
let prop_dist_equals_centralized =
  QCheck.Test.make
    ~name:"distributed = centralized (quiesced, every derived relation)"
    ~count:18
    QCheck.(triple (int_range 0 3) (int_range 3 7) (int_range 0 3))
    (fun (which, n, extra) ->
      let links =
        match which with
        | 0 -> Programs.ring_links n
        | 1 -> Programs.grid_links (2 + (n mod 2))
        | 2 -> Programs.star_links n
        | _ -> Programs.random_links ~seed:((13 * n) + extra) ~extra n
      in
      let prog =
        match which with
        | 0 | 3 -> Programs.path_vector ()
        | 1 -> Programs.reachability ()
        | _ -> Programs.bounded_distance_vector ~max_hops:(n + 1)
      in
      let preds =
        List.sort_uniq String.compare
          (List.map (fun (r : Ast.rule) -> r.Ast.head.Ast.head_pred) prog.Ast.rules)
      in
      match dist_vs_centralized ~preds prog links with
      | true, [] -> true
      | quiesced, differing ->
        QCheck.Test.fail_reportf "quiesced=%b, differing relations: %s" quiesced
          (String.concat ", "
             (List.map
                (fun (p, c, d) -> Fmt.str "%s (central %d, dist %d)" p c d)
                differing)))

(* Two messages sent at the same instant over the same link land in one
   flush: the receiving strand runs once with a delta of two tuples
   (one group). *)
let test_same_instant_burst_groups () =
  let src =
    {|
materialize(t, infinity).
materialize(s, infinity).
materialize(u, infinity).

b1 s(@D,X) :- t(@S,X,D).
b2 u(@D,X) :- s(@D,X).
|}
  in
  let p = Programs.parse_exn src in
  let p =
    {
      p with
      Ast.facts =
        [
          Ast.fact ~loc:0 "t" [ V.Addr "n0"; V.Int 1; V.Addr "n1" ];
          Ast.fact ~loc:0 "t" [ V.Addr "n0"; V.Int 2; V.Addr "n1" ];
        ];
    }
  in
  let topo () =
    let topo = Topo.create () in
    Topo.add_duplex topo "n0" "n1";
    topo
  in
  let rt = Runtime.create (topo ()) p in
  Runtime.load_facts rt;
  let rep = Runtime.run rt in
  checki "u derived at n1" 2 (Store.cardinal "u" (Runtime.node_store rt "n1"));
  let wb = rep.Runtime.wire_stats in
  (* Two singleton b1 activations at n0 plus ONE b2 flush at n1
     covering both deliveries — 3 groups for 4 delta tuples. *)
  checki "batched delta tuples" 4 wb.Eval.delta_tuples;
  checki "batched groups" 3 wb.Eval.groups;
  checkb "groups strictly below delta count" true
    (wb.Eval.groups < wb.Eval.delta_tuples)

(* The full message trace of a run is deterministic: two identically
   configured runtimes produce identical traces. *)
let test_trace_determinism () =
  let links = Programs.ring_links 5 in
  let p = localized (Programs.with_links (Programs.path_vector ()) links) in
  let go () =
    let rt = Runtime.create (topo_of_links links) p in
    Netsim.Sim.set_tracing (Runtime.simulator rt) true;
    Runtime.load_facts rt;
    ignore (Runtime.run rt);
    Netsim.Sim.trace (Runtime.simulator rt)
  in
  let t1 = go () in
  let t2 = go () in
  checkb "trace nonempty" true (t1 <> []);
  checkb "identical message traces" true (t1 = t2)

(* Whole-network iterations walk nodes in sorted name order, so the
   trace cannot depend on hash-table internals: runtimes built from
   permuted node-insertion orders behave identically. *)
let det_view_src =
  {|
materialize(obs, infinity).
materialize(noise, infinity).
materialize(best, infinity).
materialize(rep, 10).

v1 best(@S, D, min<C>) :- obs(@S, D, C).
v2 rep(@D, S, C) :- best(@S, D, C).
|}

let test_node_order_determinism () =
  let mk order =
    let topo = Topo.create () in
    List.iter (Topo.add_node topo) order;
    List.iter
      (fun (a, b) -> Topo.add_duplex topo a b)
      [ ("n0", "n1"); ("n1", "n2"); ("n2", "n0") ];
    let p = Programs.parse_exn det_view_src in
    let p =
      {
        p with
        Ast.facts =
          [
            Ast.fact ~loc:0 "obs" [ V.Addr "n0"; V.Addr "n1"; V.Int 5 ];
            Ast.fact ~loc:0 "obs" [ V.Addr "n1"; V.Addr "n2"; V.Int 5 ];
            Ast.fact ~loc:0 "obs" [ V.Addr "n2"; V.Addr "n0"; V.Int 5 ];
            (* unlocated: exercises the broadcast path *)
            Ast.fact "noise" [ V.Int 0 ];
          ];
      }
    in
    let rt = Runtime.create topo p in
    Netsim.Sim.set_tracing (Runtime.simulator rt) true;
    Runtime.load_facts rt;
    ignore (Runtime.run rt ~until:3.0);
    (Netsim.Sim.trace (Runtime.simulator rt), Runtime.global_store rt)
  in
  let t1, db1 = mk [ "n0"; "n1"; "n2" ] in
  let t2, db2 = mk [ "n2"; "n0"; "n1" ] in
  let t3, db3 = mk [ "n1"; "n2"; "n0" ] in
  checkb "trace nonempty" true (t1 <> []);
  checkb "permuted insertion: same trace (1=2)" true (t1 = t2);
  checkb "permuted insertion: same trace (1=3)" true (t1 = t3);
  checkb "same stores" true (Store.equal db1 db2 && Store.equal db1 db3)

(* ------------------------------------------------------------------ *)
(* View shipping: diff-only, with soft leases renewed while derived. *)

let ship_view_src = Dist_cases.ship_view_src

let test_view_shipping_diff_and_expiry () =
  let links = Programs.both "n0" "n1" 1 in
  let p = Programs.with_links (Programs.parse_exn ship_view_src) links in
  let p =
    {
      p with
      Ast.facts =
        p.Ast.facts
        @ [ Ast.fact ~loc:0 "obs" [ V.Addr "n0"; V.Addr "n1"; V.Int 7 ] ];
    }
  in
  let rt = Runtime.create (topo_of_links links) p in
  Runtime.load_facts rt;
  let r1 = Runtime.run rt ~until:2.0 in
  (* The soft remote view tuple arrived and is held at n1.  (The old
     runtime wiped received view tuples on the receiver's next refresh
     and re-shipped them from the source forever.) *)
  checki "rep shipped to n1" 1
    (Store.cardinal "rep" (Runtime.node_store rt "n1"));
  checkb "initial run shipped" true (r1.Runtime.stats.Netsim.Sim.messages_sent > 0);
  (* Repeated refreshes (each insertion schedules one) must not re-ship
     the already-shipped view tuple: the follow-up run windows see no
     messages at all (run stats are per-run as of PR 9). *)
  Runtime.insert rt "n0" "noise" [| V.Int 1 |];
  ignore (Runtime.run rt ~until:2.2);
  Runtime.insert rt "n0" "noise" [| V.Int 2 |];
  Runtime.insert rt "n1" "noise" [| V.Int 3 |];
  let r2 = Runtime.run rt ~until:2.4 in
  checki "refreshes do not re-ship" 0 r2.Runtime.stats.Netsim.Sim.messages_sent;
  (* Once the source's support (obs, lifetime 3) expires, the source
     stops deriving rep, renewals stop, and n1's lease lapses: the soft
     remote view tuple actually expires. *)
  let r3 = Runtime.run rt ~until:60.0 in
  checkb "quiesced" true r3.Runtime.stats.Netsim.Sim.quiesced;
  checki "best withdrawn at n0" 0
    (Store.cardinal "best" (Runtime.node_store rt "n0"));
  checki "remote soft view expired at n1" 0
    (Store.cardinal "rep" (Runtime.node_store rt "n1"));
  checki "no shipping storm" 0 r3.Runtime.stats.Netsim.Sim.messages_sent

(* ------------------------------------------------------------------ *)
(* The remote-view-deletion check. *)

let soft_dep_src =
  {|
materialize(link, infinity).
materialize(obs, 5).
materialize(cnt, infinity).
materialize(rep, infinity).

c1 cnt(@S, D, min<C>) :- obs(@S, D, C).
c2 rep(@D, S, C) :- cnt(@S, D, C).
|}

let neg_dep_src =
  {|
materialize(link, infinity).
materialize(flag, infinity).
materialize(m, infinity).
materialize(warn, infinity).

g1 m(@S, min<C>) :- link(@S, D, C).
g2 warn(@D, S) :- m(@S, C), link(@S, D, C2), !flag(@S, D).
|}

let test_remote_view_check_rejects () =
  (* Hard view head shipped remotely over soft support: rejected. *)
  (match
     Runtime.create
       (topo_of_links (Programs.both "n0" "n1" 1))
       (Programs.parse_exn soft_dep_src)
   with
  | exception Runtime.Remote_view_deletion e ->
    checkb "soft cause names obs" true
      (match e.Runtime.rv_cause with
      | Runtime.Soft_dependency "obs" -> true
      | _ -> false);
    checkb "names the view pred" true (e.Runtime.rv_pred = "rep")
  | _ -> Alcotest.fail "expected Remote_view_deletion (soft support)");
  (* Hard view head shipped remotely with negation in support. *)
  match
    Runtime.create
      (topo_of_links (Programs.both "n0" "n1" 1))
      (Programs.parse_exn neg_dep_src)
  with
  | exception Runtime.Remote_view_deletion e ->
    checkb "negation cause" true
      (match e.Runtime.rv_cause with
      | Runtime.Negation_dependency _ -> true
      | _ -> false)
  | _ -> Alcotest.fail "expected Remote_view_deletion (negation)"

let test_remote_view_check_accepts_canonical () =
  let links = Programs.ring_links 4 in
  List.iter
    (fun prog ->
      let p = localized (Programs.with_links prog links) in
      ignore (Runtime.create (topo_of_links links) p))
    [
      Programs.path_vector ();
      Programs.distance_vector ();
      Programs.bounded_distance_vector ~max_hops:4;
      Programs.reachability ();
      Programs.link_state ~max_hops:4;
      Programs.heartbeat ~lifetime:5;
    ];
  (* Soft view heads shipped remotely are fine: lease expiry is the
     remote deletion mechanism. *)
  ignore
    (Runtime.create
       (topo_of_links (Programs.both "n0" "n1" 1))
       (Programs.parse_exn ship_view_src))

(* ------------------------------------------------------------------ *)
(* Incremental view refresh: the dirty-predicate tracking path must
   actually skip work.  Its equivalence with the from-scratch oracle,
   the golden corpus and the view invariant pin the refresh mode per
   case, so they live in [test_dist_modes] and run once. *)

(* A view program whose support splits cleanly: [best]/[seen] depend on
   [obs] only, so a [noise] insertion must touch no view stratum. *)
let split_view_src =
  {|
materialize(obs, infinity).
materialize(noise, infinity).
materialize(best, infinity).
materialize(seen, infinity).

v1 best(@S, D, min<C>) :- obs(@S, D, C).
v2 seen(@S, D) :- best(@S, D, C).
|}

let split_view_runtime () =
  let topo = Topo.create () in
  Topo.add_duplex topo "n0" "n1";
  let p = Programs.parse_exn split_view_src in
  let p =
    {
      p with
      Ast.facts =
        [
          Ast.fact ~loc:0 "obs" [ V.Addr "n0"; V.Addr "n1"; V.Int 5 ];
          Ast.fact ~loc:0 "obs" [ V.Addr "n0"; V.Addr "n1"; V.Int 3 ];
        ];
    }
  in
  let rt = Runtime.create ~incremental_views:true topo p in
  Runtime.load_facts rt;
  rt

(* Dirty-set lifecycle: an insertion marks exactly its base predicate,
   a refresh clears the mark, and view-pred arrivals are never
   marked. *)
let test_dirty_marks_and_clears () =
  let rt = split_view_runtime () in
  ignore (Runtime.run rt);
  Alcotest.(check (list string))
    "refresh cleared the dirty set" [] (Runtime.dirty_preds rt "n0");
  Runtime.insert rt "n0" "obs" [| V.Addr "n0"; V.Addr "n1"; V.Int 9 |];
  Alcotest.(check (list string))
    "insertion marked exactly obs" [ "obs" ]
    (Runtime.dirty_preds rt "n0");
  Alcotest.(check (list string))
    "other nodes untouched" [] (Runtime.dirty_preds rt "n1");
  ignore (Runtime.run rt);
  Alcotest.(check (list string))
    "refresh cleared it again" [] (Runtime.dirty_preds rt "n0")

(* Expiry sweeps mark the predicates whose tuples actually lapsed. *)
let test_dirty_marks_expiry () =
  let topo = Topo.create () in
  Topo.add_duplex topo "n0" "n1";
  let p = Programs.parse_exn ship_view_src in
  let p =
    {
      p with
      Ast.facts = [ Ast.fact ~loc:0 "obs" [ V.Addr "n0"; V.Addr "n1"; V.Int 7 ] ];
    }
  in
  let rt = Runtime.create ~incremental_views:true topo p in
  Runtime.load_facts rt;
  ignore (Runtime.run rt ~until:1.0);
  checkb "converged with empty dirty set" true
    (Runtime.dirty_preds rt "n0" = []);
  (* Step the simulator event by event: the first re-dirtying of n0 is
     the expiry sweep dropping obs (lifetime 3), before the refresh it
     schedules has run. *)
  let sim = Runtime.simulator rt in
  let steps = ref 0 in
  while
    Runtime.dirty_preds rt "n0" = [] && !steps < 10_000 && Netsim.Sim.step sim
  do
    incr steps
  done;
  Alcotest.(check (list string))
    "sweep marked exactly the expired pred" [ "obs" ]
    (Runtime.dirty_preds rt "n0");
  ignore (Runtime.run rt ~until:60.0);
  Alcotest.(check (list string))
    "refresh cleared it" [] (Runtime.dirty_preds rt "n0");
  checki "support gone: view withdrawn" 0
    (Store.cardinal "best" (Runtime.node_store rt "n0"))

(* An inbox flush marks exactly the predicates it delivered. *)
let test_dirty_marks_flush () =
  let src =
    {|
materialize(t, infinity).
materialize(s, infinity).
materialize(agg, infinity).

b1 s(@D,X) :- t(@S,X,D).
v1 agg(@D, min<X>) :- s(@D,X).
|}
  in
  let p = Programs.parse_exn src in
  let p =
    {
      p with
      Ast.facts = [ Ast.fact ~loc:0 "t" [ V.Addr "n0"; V.Int 1; V.Addr "n1" ] ];
    }
  in
  let topo = Topo.create () in
  Topo.add_duplex topo "n0" "n1";
  let rt = Runtime.create ~incremental_views:true topo p in
  Runtime.load_facts rt;
  let sim = Runtime.simulator rt in
  let steps = ref 0 in
  while
    Runtime.dirty_preds rt "n1" = [] && !steps < 10_000 && Netsim.Sim.step sim
  do
    incr steps
  done;
  Alcotest.(check (list string))
    "flush marked exactly the delivered pred" [ "s" ]
    (Runtime.dirty_preds rt "n1");
  ignore (Runtime.run rt);
  checki "delivered tuple derived the view" 1
    (Store.cardinal "agg" (Runtime.node_store rt "n1"))

(* An untouched stratum costs zero evaluation work: a [noise] insertion
   outside every view's support refreshes with all strata skipped and
   nothing enumerated. *)
let test_untouched_stratum_zero_work () =
  let rt = split_view_runtime () in
  ignore (Runtime.run rt);
  Runtime.insert rt "n0" "noise" [| V.Int 1 |];
  let rep = Runtime.run rt in
  let vs = rep.Runtime.view_stats in
  checkb "strata were skipped" true (vs.Eval.strata_skipped > 0);
  checki "no fallbacks" 0 vs.Eval.refresh_fallbacks;
  checki "zero tuples enumerated by refresh" 0 vs.Eval.enumerated;
  checki "zero index probes by refresh" 0 vs.Eval.index_hits;
  (* A support insertion, by contrast, recomputes the aggregate stratum
     (fallback) and seeds the plain one. *)
  Runtime.insert rt "n0" "obs" [| V.Addr "n0"; V.Addr "n1"; V.Int 1 |];
  let rep2 = Runtime.run rt in
  let vs2 = rep2.Runtime.view_stats in
  checkb "aggregate stratum fell back" true (vs2.Eval.refresh_fallbacks > 0);
  let n0 = Runtime.node_store rt "n0" in
  checkb "new minimum took over" true
    (Store.tuples "best" n0
    |> List.exists (fun t -> V.equal t.(2) (V.Int 1)));
  checki "seen maintained through the seeded stratum" 1
    (Store.cardinal "seen" n0)

(* The ship paths guard tuple-location resolution with a typed internal
   error instead of a bare [Option.get]; for well-formed programs the
   branch is unreachable — location-less view tuples are classified
   local and never shipped. *)
let test_missing_tuple_location_unreachable () =
  let src =
    {|
materialize(obs, infinity).
materialize(best, infinity).

v1 best(S, D, min<C>) :- obs(@S, D, C).
|}
  in
  let p = Programs.parse_exn src in
  let p =
    {
      p with
      Ast.facts =
        [
          Ast.fact ~loc:0 "obs" [ V.Addr "n0"; V.Addr "n1"; V.Int 4 ];
          Ast.fact ~loc:0 "obs" [ V.Addr "n1"; V.Addr "n0"; V.Int 6 ];
        ];
    }
  in
  let topo = Topo.create () in
  Topo.add_duplex topo "n0" "n1";
  let rt = Runtime.create topo p in
  Runtime.load_facts rt;
  (* The unlocated view head refreshes and ships nothing — no
     Missing_tuple_location escapes. *)
  let rep = Runtime.run rt in
  checkb "quiesced without internal error" true
    rep.Runtime.stats.Netsim.Sim.quiesced;
  checki "unlocated view stays local" 1
    (Store.cardinal "best" (Runtime.node_store rt "n0"));
  (* The error itself names the predicate and tuple. *)
  let msg =
    Printexc.to_string
      (Runtime.Missing_tuple_location
         { mtl_pred = "best"; mtl_tuple = [| V.Addr "n0"; V.Int 3 |] })
  in
  checkb "message names the predicate" true
    (contains ~affix:"best" msg);
  checkb "message names the tuple" true
    (contains ~affix:"n0" msg)

(* Remote_view_deletion: printable, and the accept/reject table over
   (head softness × support kind) is exactly as documented. *)
let test_remote_view_printer_and_table () =
  (* Printer: both causes render the predicate chain. *)
  let soft_msg =
    Fmt.str "%a" Runtime.pp_remote_view_error
      { Runtime.rv_pred = "rep"; rv_rule = "c2"; rv_cause = Runtime.Soft_dependency "obs" }
  in
  checkb "soft message names rule, pred, cause" true
    (contains ~affix:"c2" soft_msg
    && contains ~affix:"rep" soft_msg
    && contains ~affix:"obs" soft_msg
    && contains ~affix:"expires" soft_msg);
  let neg_msg =
    Fmt.str "%a" Runtime.pp_remote_view_error
      {
        Runtime.rv_pred = "warn";
        rv_rule = "g2";
        rv_cause = Runtime.Negation_dependency "warn";
      }
  in
  checkb "negation message names rule and flip" true
    (contains ~affix:"g2" neg_msg
    && contains ~affix:"negation" neg_msg);
  (* Accept/reject table.  Rejections (hard head over shrinkable
     support) are covered by [test_remote_view_check_rejects]; the
     accepting rows: *)
  let topo () = topo_of_links (Programs.both "n0" "n1" 1) in
  let accepts src =
    match Runtime.create (topo ()) (Programs.parse_exn src) with
    | _ -> true
    | exception Runtime.Remote_view_deletion _ -> false
  in
  (* soft head × soft support: lease expiry deletes remote copies. *)
  checkb "soft head / soft support accepted" true (accepts ship_view_src);
  (* soft head × negation support: same mechanism covers flips. *)
  checkb "soft head / negation support accepted" true
    (accepts
       {|
materialize(link, infinity).
materialize(flag, infinity).
materialize(m, infinity).
materialize(warn, 10).

g1 m(@S, min<C>) :- link(@S, D, C).
g2 warn(@D, S) :- m(@S, C), link(@S, D, C2), !flag(@S, D).
|});
  (* hard head × hard monotone support: stale-view caveat, not a
     deletion — accepted. *)
  checkb "hard head / hard support accepted" true
    (accepts
       {|
materialize(link, infinity).
materialize(obs, infinity).
materialize(cnt, infinity).
materialize(rep, infinity).

c1 cnt(@S, D, min<C>) :- obs(@S, D, C).
c2 rep(@D, S, C) :- cnt(@S, D, C).
|});
  (* hard head × soft support: rejected (the one deletion would need). *)
  checkb "hard head / soft support rejected" true
    (not (accepts soft_dep_src));
  checkb "hard head / negation support rejected" true
    (not (accepts neg_dep_src))

(* ------------------------------------------------------------------ *)
(* Distance-vector protocol: convergence and count-to-infinity. *)

let test_dv_converges () =
  let topo = Topo.line 3 in
  let dv = Dv.create topo in
  let report = Dv.run dv in
  checkb "quiesced" true report.Dv.stats.Netsim.Sim.quiesced;
  checkb "no infinity" false report.Dv.counted_to_infinity;
  checkb "n0 reaches n2 at cost 2" true (Dv.route_cost dv "n0" "n2" = Some 2);
  checkb "n2 reaches n0 at cost 2" true (Dv.route_cost dv "n2" "n0" = Some 2)

let test_dv_ring_shortest () =
  let topo = Topo.ring 6 in
  let dv = Dv.create topo in
  ignore (Dv.run dv);
  checkb "opposite nodes cost 3" true (Dv.route_cost dv "n0" "n3" = Some 3);
  checkb "neighbors cost 1" true (Dv.route_cost dv "n0" "n1" = Some 1)

let test_dv_count_to_infinity () =
  (* Line n0 - n1 - n2; fail n0<->n1 after convergence.  n2's stale
     route to n0 bounces with n1 until the infinity threshold. *)
  let topo = Topo.line 3 in
  let dv = Dv.create ~infinity_threshold:32 ~period:5.0 topo in
  Dv.fail_link_at dv ~time:20.0 "n0" "n1";
  let report = Dv.run dv ~until:2000.0 ~max_events:100_000 in
  checkb "counted to infinity" true report.Dv.counted_to_infinity;
  checkb "cost climbed past threshold" true (report.Dv.max_cost_seen >= 32);
  (* After the storm, no usable route to the unreachable node remains. *)
  checkb "n2 lost its route to n0" true (Dv.route_cost dv "n2" "n0" = None)

let test_dv_no_divergence_without_failure () =
  let topo = Topo.line 3 in
  let dv = Dv.create ~infinity_threshold:32 ~period:5.0 topo in
  let report = Dv.run dv ~until:200.0 ~max_events:100_000 in
  checkb "stable under periodic adverts" false report.Dv.counted_to_infinity;
  checkb "max cost small" true (report.Dv.max_cost_seen <= 2)

let test_dv_failure_with_alternate_path () =
  (* On a ring, losing one link just reroutes the long way. *)
  let topo = Topo.ring 4 in
  let dv = Dv.create ~infinity_threshold:32 ~period:5.0 topo in
  Dv.fail_link_at dv ~time:20.0 "n0" "n1";
  ignore (Dv.run dv ~until:300.0 ~max_events:200_000);
  checkb "rerouted n0->n1 the long way" true (Dv.route_cost dv "n0" "n1" = Some 3)

let test_dv_converges_under_loss () =
  (* Periodic advertisement makes the naive protocol robust to loss. *)
  let topo = Topo.create () in
  Topo.add_duplex ~loss:0.3 topo "n0" "n1";
  Topo.add_duplex ~loss:0.3 topo "n1" "n2";
  let dv = Dv.create ~seed:3 ~period:5.0 topo in
  let report = Dv.run dv ~until:300.0 ~max_events:200_000 in
  checkb "messages were lost" true
    (report.Dv.stats.Netsim.Sim.messages_dropped > 0);
  checkb "n0 still reaches n2" true (Dv.route_cost dv "n0" "n2" = Some 2);
  checkb "n2 still reaches n0" true (Dv.route_cost dv "n2" "n0" = Some 2)

(* ------------------------------------------------------------------ *)
(* The transport layer (PR 9): wire framing and the multi-process
   supervisor. *)

module Wire = Dist.Wire
module Supervisor = Dist.Supervisor

let sample_frames =
  [
    Wire.Data
      {
        src = "n0";
        dst = "n1";
        pred = "path";
        tuple =
          [|
            V.Addr "n1";
            V.Addr "n3";
            V.List [ V.Addr "n1"; V.Addr "n2"; V.Addr "n3" ];
            V.Int 7;
            V.Str "via";
            V.Bool true;
            V.Int (-12345678901234);
          |];
      };
    Wire.Poll;
    Wire.Status
      {
        Wire.st_idle = true;
        st_sent = 42;
        st_received = 41;
        st_bytes = 123456;
        st_inserts = 9;
      };
    Wire.Dump;
    Wire.Store_dump
      [
        ( "n0",
          [
            ("link", [ [| V.Addr "n0"; V.Addr "n1"; V.Int 1 |] ]);
            ("empty", []);
          ] );
      ];
    Wire.Bye;
  ]

let test_wire_roundtrip () =
  (* Every frame variant and value sort survives encode -> decode, and
     many frames concatenated in one feed pop out in order. *)
  let d = Wire.Decoder.create () in
  List.iter
    (fun f ->
      let b = Wire.encode f in
      Wire.Decoder.feed d b 0 (Bytes.length b))
    sample_frames;
  List.iter
    (fun expect ->
      match Wire.Decoder.next d with
      | Some got -> checkb "frame roundtrips" true (got = expect)
      | None -> Alcotest.fail "decoder starved")
    sample_frames;
  checkb "decoder drained" true (Wire.Decoder.next d = None);
  checki "nothing buffered" 0 (Wire.Decoder.buffered d)

let test_wire_partial_reads () =
  (* A socket delivering one byte at a time: no frame until the last
     byte of each, then exactly that frame. *)
  let d = Wire.Decoder.create () in
  let popped = ref [] in
  List.iter
    (fun f ->
      let b = Wire.encode f in
      Bytes.iteri
        (fun i c ->
          Wire.Decoder.feed d (Bytes.make 1 c) 0 1;
          match Wire.Decoder.next d with
          | Some got ->
            checki "frame completes on its last byte" (Bytes.length b - 1) i;
            popped := got :: !popped
          | None -> ())
        b)
    sample_frames;
  checkb "all frames arrived" true (List.rev !popped = sample_frames)

let test_wire_oversized_and_bad_tag () =
  (* A corrupt length prefix must raise, not allocate. *)
  let d = Wire.Decoder.create () in
  let header = Bytes.create 4 in
  Bytes.set header 0 (Char.chr 0x7f);
  Bytes.set header 1 '\xff';
  Bytes.set header 2 '\xff';
  Bytes.set header 3 '\xff';
  Wire.Decoder.feed d header 0 4;
  (match Wire.Decoder.next d with
  | exception Wire.Frame_error (Wire.Oversized_frame _) -> ()
  | _ -> Alcotest.fail "expected Oversized_frame");
  (* An unknown body tag is a typed error too. *)
  let d = Wire.Decoder.create () in
  let bad = Bytes.of_string "\x00\x00\x00\x01\x63" in
  Wire.Decoder.feed d bad 0 (Bytes.length bad);
  match Wire.Decoder.next d with
  | exception Wire.Frame_error (Wire.Bad_tag 0x63) -> ()
  | _ -> Alcotest.fail "expected Bad_tag"

let test_wire_truncated_stream () =
  (* Peer dies mid-frame: the reader gets a typed truncation, not a
     hang or a short tuple. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let encoded = Wire.encode (List.hd sample_frames) in
  let half = Bytes.length encoded / 2 in
  ignore (Unix.write a encoded 0 half);
  Unix.close a;
  (match Wire.read_frame ~timeout:5.0 b with
  | exception Wire.Frame_error Wire.Truncated_stream -> ()
  | _ -> Alcotest.fail "expected Truncated_stream");
  Unix.close b

let test_wire_read_timeout () =
  (* A silent peer fails the read within the deadline instead of
     blocking forever. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let t0 = Unix.gettimeofday () in
  (match Wire.read_frame ~timeout:0.2 b with
  | exception Wire.Frame_error Wire.Read_timeout -> ()
  | _ -> Alcotest.fail "expected Read_timeout");
  checkb "deadline respected" true (Unix.gettimeofday () -. t0 < 2.0);
  Unix.close a;
  Unix.close b

let test_wire_partial_writes () =
  (* A frame bigger than the socket buffer: the writer must loop over
     partial writes while a forked reader drains — one write_frame
     call, one intact frame out the other end. *)
  let big =
    Wire.Store_dump
      [
        ( "n0",
          [
            ( "blob",
              List.init 20_000 (fun i ->
                  [| V.Int i; V.Str (String.make 40 'x') |]) );
          ] );
      ]
  in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close a;
    let ok =
      match Wire.read_frame ~timeout:30.0 b with
      | got -> got = big
      | exception _ -> false
    in
    Unix._exit (if ok then 0 else 1)
  | pid ->
    Unix.close b;
    let n = Wire.write_frame a big in
    checkb "frame exceeds one socket buffer" true (n > 256 * 1024);
    Unix.close a;
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "reader did not receive the frame intact")

let test_supervisor_matches_sim () =
  (* The tentpole end-to-end: path vector across real processes over
     real sockets converges to the same per-node fixpoints as the
     virtual-clock simulator on the same topology. *)
  let links = Programs.ring_links 4 in
  let full = Programs.with_links (Programs.path_vector ()) links in
  let loc = localized full in
  let topo = topo_of_links links in
  let res = Supervisor.run topo loc in
  checki "one worker per node" 4 res.Supervisor.workers;
  checkb "tuples crossed processes" true (res.Supervisor.data_frames > 0);
  checkb "bytes were metered" true
    (res.Supervisor.data_bytes > res.Supervisor.data_frames * 5);
  let rt = Runtime.create topo loc in
  Runtime.load_facts rt;
  let report = Runtime.run rt in
  checkb "sim quiesced" true report.Runtime.stats.Netsim.Sim.quiesced;
  checki "every node dumped" 4 (List.length res.Supervisor.stores);
  List.iter
    (fun (node, store) ->
      checkb
        (Printf.sprintf "node %s fixpoint matches the simulator" node)
        true
        (Store.equal store (Runtime.node_store rt node)))
    res.Supervisor.stores

let test_runtime_rejects_foreign_hosted () =
  let links = Programs.ring_links 3 in
  let full = Programs.with_links (Programs.path_vector ()) links in
  let loc = localized full in
  let topo = topo_of_links links in
  match Runtime.create ~hosted:[ "n9" ] topo loc with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for unknown hosted node"

let test_simulator_accessor_guard () =
  (* A runtime on a non-simulator transport has no virtual clock to
     script: the accessor must say so, typed. *)
  let links = Programs.ring_links 3 in
  let full = Programs.with_links (Programs.path_vector ()) links in
  let loc = localized full in
  let topo = topo_of_links links in
  let dummy =
    {
      Dist.Transport.now = (fun () -> 0.0);
      send = (fun ~src:_ ~dst:_ _ -> false);
      schedule = (fun ~delay:_ _ -> ());
      set_handler = (fun _ _ -> ());
      run =
        (fun ~until:_ ~max_events:_ ->
          {
            Netsim.Sim.final_time = 0.0;
            events = 0;
            messages_sent = 0;
            messages_delivered = 0;
            messages_dropped = 0;
            quiesced = true;
          });
      sim = None;
    }
  in
  let rt = Runtime.create ~transport:dummy topo loc in
  match Runtime.simulator rt with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument from simulator accessor"

let () =
  Alcotest.run "dist"
    [
      ( "runtime",
        [
          Alcotest.test_case "line = centralized" `Quick test_dist_line;
          Alcotest.test_case "ring = centralized" `Quick test_dist_ring;
          Alcotest.test_case "asymmetric costs" `Quick test_dist_asymmetric;
          Alcotest.test_case "random reachability" `Quick test_dist_random;
          Alcotest.test_case "reachability scale" `Quick
            test_dist_reachability_scale;
          Alcotest.test_case "best path placement" `Quick
            test_dist_best_path_values;
          Alcotest.test_case "message accounting" `Quick
            test_dist_message_accounting;
          Alcotest.test_case "rejects unlocalized" `Quick
            test_dist_rejects_unlocalized;
          Alcotest.test_case "soft state expiry" `Quick
            test_dist_soft_state_expiry;
        ] );
      ( "batching",
        [
          QCheck_alcotest.to_alcotest prop_dist_equals_centralized;
          Alcotest.test_case "same-instant burst groups" `Quick
            test_same_instant_burst_groups;
          Alcotest.test_case "trace determinism" `Quick test_trace_determinism;
          Alcotest.test_case "node-order determinism" `Quick
            test_node_order_determinism;
        ] );
      ( "views",
        [
          Alcotest.test_case "shipping diff + soft expiry" `Quick
            test_view_shipping_diff_and_expiry;
          Alcotest.test_case "remote deletion rejected" `Quick
            test_remote_view_check_rejects;
          Alcotest.test_case "canonical programs accepted" `Quick
            test_remote_view_check_accepts_canonical;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "dirty marks and clears" `Quick
            test_dirty_marks_and_clears;
          Alcotest.test_case "dirty marks expiry" `Quick
            test_dirty_marks_expiry;
          Alcotest.test_case "dirty marks flush" `Quick test_dirty_marks_flush;
          Alcotest.test_case "untouched stratum zero work" `Quick
            test_untouched_stratum_zero_work;
          Alcotest.test_case "missing location unreachable" `Quick
            test_missing_tuple_location_unreachable;
          Alcotest.test_case "remote-view printer and table" `Quick
            test_remote_view_printer_and_table;
        ] );
      ( "distance_vector",
        [
          Alcotest.test_case "converges" `Quick test_dv_converges;
          Alcotest.test_case "ring shortest" `Quick test_dv_ring_shortest;
          Alcotest.test_case "count to infinity" `Quick
            test_dv_count_to_infinity;
          Alcotest.test_case "stable without failure" `Quick
            test_dv_no_divergence_without_failure;
          Alcotest.test_case "alternate path reroute" `Quick
            test_dv_failure_with_alternate_path;
          Alcotest.test_case "converges under loss" `Quick
            test_dv_converges_under_loss;
        ] );
      ( "transport",
        [
          Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "partial reads" `Quick test_wire_partial_reads;
          Alcotest.test_case "oversized and bad tag" `Quick
            test_wire_oversized_and_bad_tag;
          Alcotest.test_case "truncated stream" `Quick
            test_wire_truncated_stream;
          Alcotest.test_case "read timeout" `Quick test_wire_read_timeout;
          Alcotest.test_case "partial writes" `Quick test_wire_partial_writes;
          Alcotest.test_case "supervisor matches simulator" `Quick
            test_supervisor_matches_sim;
          Alcotest.test_case "rejects foreign hosted" `Quick
            test_runtime_rejects_foreign_hosted;
          Alcotest.test_case "simulator accessor guard" `Quick
            test_simulator_accessor_guard;
        ] );
    ]
