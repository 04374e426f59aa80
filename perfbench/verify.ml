(* Model-checking queries (the cells of experiment E17), round-robin in a
   seeded order.  One op is one query: [Ndlog_ts] explore or check, or
   [Soft_ts] check, in mode plain, por (partial-order reduction), sym
   (symmetry reduction) or both.  Each query type stresses a different
   checker layer — canonicalization under sym/both, successor
   generation under por, the visited table on large plain spaces. *)

module E = Mcheck.Explore
module NT = Mcheck.Ndlog_ts
module ST = Mcheck.Soft_ts
module Sym = Mcheck.Symmetry
module S = Ndlog.Store
module P = Ndlog.Programs

let layers =
  [
    "op"; "explore"; "ndlog_ts.successors"; "soft_ts.successors";
    "state.identity"; "symmetry.canon"; "explore.independent";
  ]

let modes = [ "plain"; "por"; "sym"; "both" ]

(* Queries are long, so a run holds hundreds, not thousands: the p90 is
   the highest percentile with ten samples beyond it. *)
let tail = 0.90

type outcome = {
  states : int;
  transitions : int;
  verdict : string;  (* fixpoint | ok | violation | truncated | wrong-fixpoint *)
  trace_len : int;
  replay : (unit -> (unit, string) result) option;  (* for violations *)
}

type query = {
  name : string;
  mode : string;
  expected : string;
  run : Tracer.t option -> outcome;
}

(* A labeled system whose closures are timed: successor generation
   ([succ]), state identity (hash, equal) and the POR hooks. *)
let wrap tr ~succ (s : ('s, 'a) E.sys) : ('s, 'a) E.sys =
  let l = Tracer.layer_id tr in
  let l_succ = l succ and l_id = l "state.identity" in
  let l_ind = l "explore.independent" in
  {
    s with
    successors = (fun st -> Tracer.span tr l_succ (fun () -> s.successors st));
    actions =
      Option.map
        (fun f st -> Tracer.span tr l_succ (fun () -> f st))
        s.actions;
    independent =
      Option.map
        (fun f st a b -> Tracer.span tr l_ind (fun () -> f st a b))
        s.independent;
    visible =
      Option.map (fun f st a -> Tracer.span tr l_ind (fun () -> f st a)) s.visible;
    equal = (fun a b -> Tracer.span tr l_id (fun () -> s.equal a b));
    hash = (fun st -> Tracer.span tr l_id (fun () -> s.hash st));
  }

let timed_canon tr canon =
  let l = Tracer.layer_id tr "symmetry.canon" in
  fun st -> Tracer.span tr l (fun () -> canon st)

let in_explore tr f = Tracer.span tr (Tracer.layer_id tr "explore") f

let of_check sys = function
  | Ok (st : _ E.stats) ->
    {
      states = st.E.states;
      transitions = st.E.transitions;
      verdict = (if st.E.truncated then "truncated" else "ok");
      trace_len = 0;
      replay = None;
    }
  | Error (v : _ E.violation) ->
    {
      states = 0;
      transitions = 0;
      verdict = "violation";
      trace_len = List.length v.E.trace;
      replay = Some (fun () -> E.validate_trace sys v.E.trace);
    }

(* One fine-grained NDlog query.  An explore query must end in a single
   terminal state equal, over [preds], to the centralized fixpoint. *)
let ndlog_query ~cell ~kind ~mode ?(cap = 100_000) ~expected ~prog ~topo ~preds
    ~inv () =
  let sym = Sym.of_topology topo in
  let por = mode = "por" || mode = "both" in
  let symmetry = if mode = "sym" || mode = "both" then Some sym else None in
  (* Only explore queries need the fixpoint, and only programs with a
     finite one are explored. *)
  let fix = lazy (S.restrict preds (Ndlog.Eval.run_exn prog).Ndlog.Eval.db) in
  let lsys = NT.labeled_system prog in
  let traced tr = wrap tr ~succ:"ndlog_ts.successors" (NT.labeled_system prog) in
  let canon tr = Option.map (fun s -> timed_canon tr (Sym.canon_store s)) symmetry in
  let run tr =
    match kind with
    | `Explore ->
      let st =
        match tr with
        | None -> NT.explore ~max_states:cap ~por ?symmetry prog
        | Some tr ->
          let sys = traced tr and canon = canon tr in
          in_explore tr (fun () ->
              E.explore ~max_states:cap ~por ?canon sys)
      in
      let verdict =
        if st.E.truncated then "truncated"
        else
          match st.E.terminal with
          | [ db ] when S.equal (S.restrict preds db) (Lazy.force fix) ->
            "fixpoint"
          | _ -> "wrong-fixpoint"
      in
      {
        states = st.E.states;
        transitions = st.E.transitions;
        verdict;
        trace_len = 0;
        replay = None;
      }
    | `Check ->
      let res =
        match tr with
        | None ->
          NT.check_fine_invariant ~max_states:cap ~por ?symmetry ~stable:true
            prog inv
        | Some tr ->
          let sys = traced tr and canon = canon tr in
          in_explore tr (fun () ->
              E.check_invariant ~max_states:cap ~por ?canon ~stable:true sys inv)
      in
      of_check lsys res
  in
  let kind_s = match kind with `Explore -> "explore" | `Check -> "check" in
  { name = Printf.sprintf "%s/%s/%s" cell kind_s mode; mode; expected; run }

(* A soft-state check over the clocked lease system. *)
let soft_query ~cell ~mode ~expected ~cfg ~topo ~observed ~inv () =
  let sym = Sym.of_topology topo in
  let por = mode = "por" || mode = "both" in
  let symmetry = if mode = "sym" || mode = "both" then Some sym else None in
  let lsys = ST.labeled_system ~observed cfg in
  let run tr =
    let res =
      match tr with
      | None -> ST.check ~por ?symmetry ~observed cfg inv
      | Some tr ->
        let sys = wrap tr ~succ:"soft_ts.successors" (ST.labeled_system ~observed cfg) in
        let canon =
          Option.map (fun s -> timed_canon tr (ST.canon_state s)) symmetry
        in
        in_explore tr (fun () ->
            E.check_invariant ~max_states:100_000 ~por ?canon sys inv)
    in
    of_check lsys res
  in
  { name = Printf.sprintf "%s/check/%s" cell mode; mode; expected; run }

let reach links = P.with_links (P.reachability ()) links
let bdv h links = P.with_links (P.bounded_distance_vector ~max_hops:h) links

let no_self_reach db =
  S.fold_rel "reachable"
    (fun t ok -> ok && not (Ndlog.Value.equal t.(0) t.(1)))
    db true

let cost_bound b db =
  S.fold_rel "cost"
    (fun t ok ->
      ok && match t.(2) with Ndlog.Value.Int c -> c <= b | _ -> true)
    db true

let heartbeat k =
  let prog =
    P.parse_exn
      {|
materialize(ping, 2).
materialize(alive, 2).
a1 alive(@X,Y) :- ping(@X,Y).
|}
  in
  let pings =
    List.init (k - 1) (fun i ->
        ("ping", [| Ndlog.Value.Addr (P.node 0); Ndlog.Value.Addr (P.node (i + 1)) |]))
  in
  ST.make_config ~horizon:4 ~inject:(fun t -> if t <= 1 then pings else []) prog

let alive_gone (s : ST.state) =
  s.ST.clock < 4 || S.is_empty (S.restrict [ "alive" ] s.ST.db)

(* The fixed query mix: 33 queries, about 0.4 s per round on a 2-core
   x86-64 host.  Two query types run more than once per round so that
   the reported percentiles fall inside one type's samples instead of on
   the edge between two: the two largest plain queries (ring-4
   reachability capped at 800 states, heartbeat on star-7 with 1,587
   states) twice, for the p90, and the ring-8 both check, which sits in
   the middle of the cost order, three times, for the median.  Expected
   verdicts: every node of a symmetric topology reaches itself (a
   violation of no-self-reach); a 2-hop bound keeps every cost within 2
   on unit links; unbounded distance-vector counts to infinity on a
   ring (a violation of the cost bound); every heartbeat lease has
   lapsed by the horizon; the plain ring-4 search hits its cap. *)
let queries () =
  let nd ?cap ~cell ~kind ~expected ~prog ~topo ~preds ~inv mode =
    ndlog_query ~cell ~kind ~mode ?cap ~expected ~prog ~topo ~preds ~inv ()
  in
  let reach_cell ?cap ~k ~topo ~kind ~expected modes =
    List.map
      (nd ?cap ~cell:k ~kind ~expected ~prog:(reach (fst topo))
         ~topo:(snd topo) ~preds:[ "link"; "reachable" ] ~inv:no_self_reach)
      modes
  in
  let cost_cell ?cap ~k ~prog ~topo ~bound ~kind ~expected modes =
    List.map
      (nd ?cap ~cell:k ~kind ~expected ~prog ~topo ~preds:[ "link"; "cost" ]
         ~inv:(cost_bound bound))
      modes
  in
  let soft ~k modes =
    List.map
      (fun mode ->
        soft_query ~cell:(Printf.sprintf "heartbeat-star%d" k) ~mode
          ~expected:"ok" ~cfg:(heartbeat k) ~topo:(Netsim.Topology.star k)
          ~observed:[ "alive" ] ~inv:alive_gone ())
      modes
  in
  let ring k = (P.ring_links k, Netsim.Topology.ring k) in
  let line3 = (P.line_links 3, Netsim.Topology.line 3) in
  let star4 = (P.star_links 4, Netsim.Topology.star 4) in
  let r3 = Netsim.Topology.ring 3 and r8 = Netsim.Topology.ring 8 in
  let bdv_r3 = bdv 2 (P.ring_links 3) and bdv_r8 = bdv 2 (P.ring_links 8) in
  let dv_r8 = P.with_links (P.distance_vector ()) (P.ring_links 8) in
  List.concat
    [
      reach_cell ~cap:800 ~k:"reach-ring4" ~topo:(ring 4) ~kind:`Explore
        ~expected:"truncated" [ "plain"; "plain" ];
      reach_cell ~k:"reach-ring4" ~topo:(ring 4) ~kind:`Explore
        ~expected:"fixpoint" [ "por"; "both" ];
      reach_cell ~k:"reach-ring3" ~topo:(ring 3) ~kind:`Explore
        ~expected:"fixpoint" [ "plain"; "por" ];
      reach_cell ~k:"reach-ring3" ~topo:(ring 3) ~kind:`Check
        ~expected:"violation" modes;
      reach_cell ~k:"reach-line3" ~topo:line3 ~kind:`Explore
        ~expected:"fixpoint" [ "plain"; "sym" ];
      reach_cell ~k:"reach-star4" ~topo:star4 ~kind:`Check
        ~expected:"violation" [ "plain"; "sym" ];
      reach_cell ~k:"reach-star4" ~topo:star4 ~kind:`Explore
        ~expected:"fixpoint" [ "por"; "both" ];
      reach_cell ~k:"reach-ring8" ~topo:(ring 8) ~kind:`Explore
        ~expected:"fixpoint" [ "por" ];
      reach_cell ~k:"reach-ring8" ~topo:(ring 8) ~kind:`Check
        ~expected:"violation" [ "por"; "both"; "both"; "both" ];
      cost_cell ~k:"bdv2-ring3" ~prog:bdv_r3 ~topo:r3 ~bound:2 ~kind:`Explore
        ~expected:"fixpoint" [ "por"; "both" ];
      cost_cell ~k:"bdv2-ring8" ~prog:bdv_r8 ~topo:r8 ~bound:2 ~kind:`Check
        ~expected:"ok" [ "por" ];
      cost_cell ~cap:50_000 ~k:"dv-ring8" ~prog:dv_r8 ~topo:r8 ~bound:4
        ~kind:`Check ~expected:"violation" [ "por"; "both" ];
      soft ~k:4 [ "sym" ];
      soft ~k:5 [ "sym"; "both" ];
      soft ~k:6 [ "plain"; "por" ];
      soft ~k:7 [ "plain"; "plain" ];
    ]

let digest_line q o =
  Printf.sprintf "%s %d %d %s %d" q.name o.states o.transitions o.verdict
    o.trace_len

let run ~seed ~seconds ~ops ~traced ~spans =
  let tr = if traced then Some (Tracer.create layers) else None in
  (* Set-up builds every query (programs, symmetry groups, centralized
     fixpoints) and warms up by running each once against its expected
     verdict. *)
  let setup () =
    let qs = Array.of_list (queries ()) in
    Array.iter
      (fun q ->
        let o = q.run None in
        if o.verdict <> q.expected then
          failwith
            (Printf.sprintf "set-up: %s gave %s, expected %s" q.name o.verdict
               q.expected))
      qs;
    Gc.compact ();
    qs
  in
  let qs, setup = Util.repeated_setup ~reps:5 setup in
  (* The seed fixes the order of each round; every round is shuffled
     afresh, so a run averages over many orders rather than timing one. *)
  let round = Array.length qs in
  let order = Array.init round Fun.id and order_round = ref (-1) in
  let query k =
    let r = k / round in
    if r <> !order_round then begin
      let rng = Random.State.make [| seed; r |] in
      Array.iteri (fun i _ -> order.(i) <- i) order;
      for i = round - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let x = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- x
      done;
      order_round := r
    end;
    qs.(order.(k mod round))
  in
  let last = ref None and digest = ref "" and failures = ref [] in
  let checks = ref 0 in
  let states = ref 0 and transitions = ref 0 in
  let violations = ref 0 and validate_ns = ref 0 in
  Option.iter Tracer.reset tr;
  let interned0 = Ndlog.Intern.size () and gc0 = Util.gc_mark () in
  let op k =
    last := None;
    let q = query k in
    last :=
      Some
        (match tr with
        | Some t -> Tracer.span t (Tracer.layer_id t "op") (fun () -> q.run tr)
        | None -> q.run None)
  in
  (* Every query's verdict, and every counterexample replayed. *)
  let between k =
    match !last with
    | None -> ()
    | Some o ->
      let q = query k in
      incr checks;
      digest := Digest.string (!digest ^ digest_line q o);
      states := !states + o.states;
      transitions := !transitions + o.transitions;
      let problems =
        (if o.verdict <> q.expected then
           [ Printf.sprintf "verdict %s, expected %s" o.verdict q.expected ]
         else [])
        @ (match o.replay with
          | None -> []
          | Some replay -> (
            incr violations;
            let t0 = Util.now_ns () in
            let r = replay () in
            validate_ns := !validate_ns + (Util.now_ns () - t0);
            match r with Ok () -> [] | Error e -> [ "trace does not replay: " ^ e ]))
      in
      if problems <> [] then
        failures :=
          Printf.sprintf "op %d %s: %s" k q.name (String.concat "; " problems)
          :: !failures
  in
  let w = Util.measure ?ops ~seconds ~round ~tail ~op ~between () in
  last := None;
  let intern = Util.intern_growth ~ops:w.n_ops interned0 in
  let live_words, gc = Util.gc_metrics ~ops:w.n_ops gc0 in
  let per_query x = x /. float_of_int w.n_ops in
  let layers =
    match tr with
    | Some t ->
      Option.iter (Tracer.write t) spans;
      let ms name = per_query (Tracer.self_ms t name) in
      let calls name = per_query (float_of_int (Tracer.calls t name)) in
      [
        ("ndlog_ts.successors.ms_per_query", ms "ndlog_ts.successors", "ms");
        ("ndlog_ts.successors.calls_per_query", calls "ndlog_ts.successors", "count");
        ("soft_ts.successors.ms_per_query", ms "soft_ts.successors", "ms");
        ("state.identity.ms_per_query", ms "state.identity", "ms");
        ("state.identity.calls_per_query", calls "state.identity", "count");
        ("symmetry.canon.ms_per_query", ms "symmetry.canon", "ms");
        ("symmetry.canon.calls_per_query", calls "symmetry.canon", "count");
        ("explore.independent.ms_per_query", ms "explore.independent", "ms");
        ("explore.self.ms_per_query", ms "explore", "ms");
        ("explore.states_per_query", per_query (float_of_int !states), "count");
        ( "explore.transitions_per_state",
          float_of_int !transitions /. float_of_int (max 1 !states),
          "count" );
        ("trace.residual_share", Tracer.residual_share t "op", "1");
      ]
    | None ->
      let ks = List.init w.n_ops Fun.id in
      let mode_p50 mode =
        let xs =
          List.filter_map
            (fun k -> if (query k).mode = mode then Some w.lat.{k} else None)
            ks
        in
        (Printf.sprintf "mode.%s.op_p50_ms" mode, Util.median xs *. 1e3, "ms")
      in
      let busy = List.fold_left (fun acc k -> acc +. w.lat.{k}) 0. ks in
      (intern :: gc)
      @ List.map mode_p50 modes
      @ [
          ("explore.states_per_s", float_of_int !states /. busy, "1/s");
          ( "explore.validate_ms_per_violation",
            float_of_int !validate_ns *. 1e-6 /. float_of_int (max 1 !violations),
            "ms" );
        ]
  in
  Util.result ~tail ~setup ~live_words ~checks:!checks
    ~failures:(List.rev !failures) ~digest:(Digest.to_hex !digest) ~layers w
