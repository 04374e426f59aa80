(* Soft-state churn (the shape of experiment E14): a leased, bounded
   path-vector program with a [min] aggregate and a list-keyed audit join
   on a 64-node ring with (i, i+5) chords.  Link offers alternate with
   route promises; a seeded quarter of them is withheld, so leases
   lapse, and offered costs flap.  One op is one [Runtime.insert] plus
   [Runtime.run ~until] that event's instant. *)

module R = Dist.Runtime
module V = Ndlog.Value
module S = Ndlog.Store

let n = 64
(* Set-up runs the first events: ten lease lifetimes, so the timed
   window starts in the steady state of offers, lapses and renewals. *)
let warmup = 32 * n
let check_every = 2_000  (* ops between route-optimality checks *)
let tail = 0.99

let src =
  {|
materialize(link, infinity).
materialize(path, infinity).
materialize(bestPathCost, infinity).
materialize(bestPath, infinity).
materialize(promise, infinity).
materialize(audit, infinity).

r1 path(@S,D,P,C,H) :- link(@S,D,C), P=f_init(S,D), H=1.
r2 path(@S,D,P,C,H) :- link(@S,Z,C1), path(@Z,D,P2,C2,H2),
                       C=C1+C2, P=f_concatPath(S,P2),
                       f_inPath(P2,S)=false, H=H2+1, H2<2.
r3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C,H).
r4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C,H).
r5 audit(@S,D,P) :- promise(@S,P,D), path(@S,D,P,C,H).
|}

(* Every relation on a lease of 3n: it outlives a kept offer cycle and
   lapses across a withheld one. *)
let program () =
  let p = Ndlog.Programs.parse_exn src in
  let lifetime = Ndlog.Ast.Lifetime (3.0 *. float_of_int n) in
  let p =
    {
      p with
      Ndlog.Ast.decls =
        List.map
          (fun d -> { d with Ndlog.Ast.decl_lifetime = lifetime })
          p.Ndlog.Ast.decls;
    }
  in
  match Ndlog.Localize.rewrite_program p with
  | Ok r -> r.Ndlog.Localize.program
  | Error e -> failwith (Fmt.str "%a" Ndlog.Localize.pp_error e)

let nd i = Ndlog.Programs.node (i mod n)

let topology () =
  let t = Netsim.Topology.create () in
  for i = 0 to n - 1 do
    List.iter
      (fun j ->
        Netsim.Topology.add_link t (nd i) (nd j);
        Netsim.Topology.add_link t (nd j) (nd i))
      [ i + 1; i + 5 ]
  done;
  t

(* Seeded draws keyed by event index, so set-up repetitions and the
   traced rerun replay the identical stream. *)
let draw ~seed e salt = Hashtbl.hash (seed, e, salt)

(* Event [e] at instant e+1.  Even events offer a link (ring links on
   even passes, chords on odd ones, cost 1..3), odd events inject a
   route promise that rule r5 audits against the computed path list.
   Each pass sweeps the nodes from a seeded start. *)
let event ~seed ~insert e =
  let pass = e / (2 * n) in
  let i = (e / 2) + draw ~seed pass 0 in
  if draw ~seed e 1 mod 4 <> 0 then
    if e land 1 = 0 then
      insert (nd i) "link"
        [|
          V.Addr (nd i);
          V.Addr (nd (i + if pass land 1 = 0 then 1 else 5));
          V.Int (1 + (draw ~seed e 2 mod 3));
        |]
    else
      let hop, dst = if pass land 1 = 0 then (1, 2) else (5, 10) in
      insert (nd i) "promise"
        [|
          V.Addr (nd i);
          V.List [ V.Addr (nd i); V.Addr (nd (i + hop)); V.Addr (nd (i + dst)) ];
          V.Addr (nd (i + dst));
        |]

(* Route optimality (bestPathStrong) in one node store: each bestPath is
   backed by a path, no path is cheaper, and every (S,D) with a path
   has a bestPath. *)
let best_path_strong store =
  let cheapest = Hashtbl.create 64 and backed = Hashtbl.create 256 in
  S.iter_rel "path"
    (fun t ->
      let key = (t.(0), t.(1)) and c = V.as_int t.(3) in
      Hashtbl.replace backed (t.(0), t.(1), t.(2), c) ();
      match Hashtbl.find_opt cheapest key with
      | Some c' when c' <= c -> ()
      | _ -> Hashtbl.replace cheapest key c)
    store;
  let best = Hashtbl.create 64 in
  let ok =
    S.fold_rel "bestPath"
      (fun t ok ->
        let c = V.as_int t.(3) in
        Hashtbl.replace best (t.(0), t.(1)) ();
        ok
        && Hashtbl.mem backed (t.(0), t.(1), t.(2), c)
        && Hashtbl.find_opt cheapest (t.(0), t.(1)) = Some c)
      store true
  in
  ok && Hashtbl.fold (fun k _ ok -> ok && Hashtbl.mem best k) cheapest true

let run ~seed ~seconds ~ops ~traced ~spans =
  let rt_trace = if traced then Some (Rt_trace.create ()) else None in
  let insert_in rt node pred tuple =
    match rt_trace with
    | Some t -> Rt_trace.insert t rt node pred tuple
    | None -> R.insert rt node pred tuple
  in
  let step rt e =
    event ~seed ~insert:(insert_in rt) e;
    let rep = R.run rt ~until:(float_of_int (e + 1)) in
    Option.iter (fun t -> Rt_trace.note_run t rep) rt_trace
  in
  let setup () =
    let prog = program () and topo = topology () in
    let rt =
      match rt_trace with
      | Some t -> Rt_trace.runtime t topo prog
      | None -> R.create topo prog
    in
    R.load_facts rt;
    for e = 0 to warmup - 1 do
      step rt e
    done;
    Gc.compact ();
    rt
  in
  let rt, setup = Util.repeated_setup ~reps:5 setup in
  let nodes = Netsim.Topology.nodes (topology ()) in
  let checks = ref 0 and failures = ref [] in
  let check k =
    incr checks;
    match
      List.filter (fun nm -> not (best_path_strong (R.node_store rt nm))) nodes
    with
    | [] -> ()
    | bad ->
      failures :=
        Printf.sprintf "after op %d, not route-optimal at %s" k
          (String.concat " " bad)
        :: !failures
  in
  Option.iter Rt_trace.reset rt_trace;
  let inserts0 = R.total_inserts rt and interned0 = Ndlog.Intern.size () in
  let gc0 = Util.gc_mark () in
  let op k =
    match rt_trace with
    | Some t -> Rt_trace.op t (fun () -> step rt (warmup + k))
    | None -> step rt (warmup + k)
  in
  let between k = if (k + 1) mod check_every = 0 then check k in
  let w = Util.measure ?ops ~seconds ~round:1 ~tail ~op ~between () in
  let inserts = R.total_inserts rt - inserts0 in
  let intern = Util.intern_growth ~ops:w.n_ops interned0 in
  let live_words, gc = Util.gc_metrics ~ops:w.n_ops gc0 in
  check w.n_ops;
  let digest =
    List.map (fun nm -> nm ^ " " ^ S.to_string (R.node_store rt nm)) nodes
    @ [ string_of_int (R.total_inserts rt) ]
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  let layers =
    match rt_trace with
    | Some t ->
      Option.iter (Tracer.write t.Rt_trace.tr) spans;
      Rt_trace.metrics t ~inserts
    | None -> intern :: gc
  in
  Util.result ~tail ~setup ~live_words ~checks:!checks
    ~failures:(List.rev !failures) ~digest ~layers w
