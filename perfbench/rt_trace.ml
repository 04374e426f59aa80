(* Layer attribution for the distributed runtime, taken from outside:
   the runtime is handed a simulator transport whose closures are timed.

   - [send] is shipping ([transport.send]);
   - each delivery handler is [runtime.deliver];
   - a positive-delay callback is an expiry sweep or a lease renewal
     ([runtime.timer]); a zero-delay one scheduled inside [run] is an
     inbox flush or a view refresh ([runtime.flush]), and one scheduled
     outside [run] is a fact load ([runtime.insert]);
   - the growth of [Runtime.refresh_seconds] across a callback is split
     out of it as [runtime.refresh];
   - the self time of [run] (its duration minus every callback and
     handler) is the simulator's own dispatch. *)

module R = Dist.Runtime

let layers =
  [
    "op"; "runtime.create"; "runtime.insert"; "runtime.run"; "runtime.flush";
    "runtime.refresh"; "runtime.timer"; "runtime.deliver"; "transport.send";
  ]

type t = {
  tr : Tracer.t;
  mutable rt : R.t option;  (* set once [R.create] returns *)
  mutable in_run : bool;
  mutable sends : int;
  mutable drops : int;
  mutable ops : int;
  mutable events : int;
  mutable walks : int;  (* refresh walks of runtimes already dropped *)
  mutable walks_base : int;  (* refresh walks before the timed window *)
  mutable wire : Ndlog.Eval.stats;
  mutable view : Ndlog.Eval.stats;
  l_op : int;
  l_create : int;
  l_insert : int;
}

let create () =
  let tr = Tracer.create layers in
  {
    tr;
    rt = None;
    in_run = false;
    sends = 0;
    drops = 0;
    ops = 0;
    events = 0;
    walks = 0;
    walks_base = 0;
    wire = Ndlog.Eval.zero_stats;
    view = Ndlog.Eval.zero_stats;
    l_op = Tracer.layer_id tr "op";
    l_create = Tracer.layer_id tr "runtime.create";
    l_insert = Tracer.layer_id tr "runtime.insert";
  }

let id t = Tracer.layer_id t.tr

let refresh_s t = match t.rt with Some rt -> R.refresh_seconds rt | None -> 0.

let transport t topo : Dist.Transport.t =
  let base = Dist.Transport.of_sim (Netsim.Sim.create topo) in
  let l_send = id t "transport.send" and l_deliver = id t "runtime.deliver" in
  let l_timer = id t "runtime.timer" and l_flush = id t "runtime.flush" in
  let l_refresh = id t "runtime.refresh" in
  let l_run = id t "runtime.run" in
  {
    base with
    send =
      (fun ~src ~dst m ->
        t.sends <- t.sends + 1;
        let ok = Tracer.span t.tr l_send (fun () -> base.send ~src ~dst m) in
        if not ok then t.drops <- t.drops + 1;
        ok);
    schedule =
      (fun ~delay cb ->
        let layer =
          if delay > 0. then l_timer else if t.in_run then l_flush else t.l_insert
        in
        base.schedule ~delay (fun () ->
            let r0 = refresh_s t in
            Tracer.enter_at t.tr layer (Util.now_ns ());
            match cb () with
            | () ->
              let stop = Util.now_ns () in
              let dr = refresh_s t -. r0 in
              if dr > 0. then
                Tracer.child t.tr l_refresh ~stop ~ns:(int_of_float (dr *. 1e9));
              Tracer.leave_at t.tr stop
            | exception e ->
              Tracer.leave_at t.tr (Util.now_ns ());
              raise e));
    set_handler =
      (fun node h ->
        base.set_handler node (fun ~self ~src m ->
            Tracer.span t.tr l_deliver (fun () -> h ~self ~src m)));
    run =
      (fun ~until ~max_events ->
        t.in_run <- true;
        let s =
          Tracer.span t.tr l_run (fun () -> base.run ~until ~max_events)
        in
        t.in_run <- false;
        s);
  }

(* A runtime built on the timed transport; [R.create] itself is a span. *)
let runtime t topo prog =
  let rt =
    Tracer.span t.tr t.l_create (fun () ->
        R.create ~transport:(transport t topo) topo prog)
  in
  (match t.rt with Some old -> t.walks <- t.walks + R.refresh_walks old | None -> ());
  t.rt <- Some rt;
  rt

let insert t rt node pred tuple =
  Tracer.span t.tr t.l_insert (fun () -> R.insert rt node pred tuple)

let total_walks t =
  t.walks + match t.rt with Some rt -> R.refresh_walks rt | None -> 0

(* Start the timed window: drop the spans and counts of set-up. *)
let reset t =
  Tracer.reset t.tr;
  t.sends <- 0;
  t.drops <- 0;
  t.ops <- 0;
  t.events <- 0;
  t.walks_base <- total_walks t;
  t.wire <- Ndlog.Eval.zero_stats;
  t.view <- Ndlog.Eval.zero_stats

let note_run t (rep : R.run_report) =
  t.events <- t.events + rep.R.stats.Netsim.Sim.events;
  t.wire <- Ndlog.Eval.add_stats t.wire rep.R.wire_stats;
  t.view <- Ndlog.Eval.add_stats t.view rep.R.view_stats

let op t f =
  t.ops <- t.ops + 1;
  Tracer.span t.tr t.l_op f

(* Per-layer metrics of the traced window.  [inserts] is the runtime's
   store-insertion count over the window. *)
let metrics t ~inserts =
  let ops = float_of_int t.ops in
  let per_op x = x /. ops in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let ms name = per_op (Tracer.self_ms t.tr name) in
  let calls name = per_op (float_of_int (Tracer.calls t.tr name)) in
  let walks = total_walks t - t.walks_base in
  let v = t.view and w = t.wire in
  let open Ndlog.Eval in
  [
    ("runtime.refresh.ms_per_op", ms "runtime.refresh", "ms");
    ("runtime.refresh.walks_per_op", per_op (float_of_int walks), "count");
    ("eval.refresh.skipped_per_walk", ratio v.strata_skipped walks, "count");
    ("eval.refresh.fallbacks_per_walk", ratio v.refresh_fallbacks walks, "count");
    ("eval.refresh.enumerated_per_op", per_op (float_of_int v.enumerated), "count");
    ("runtime.flush.ms_per_op", ms "runtime.flush", "ms");
    ("runtime.flush.calls_per_op", calls "runtime.flush", "count");
    ("eval.strand.enumerated_per_op", per_op (float_of_int w.enumerated), "count");
    ("eval.strand.match_ratio", ratio w.matched w.enumerated, "1");
    ("eval.strand.index_hit_ratio", ratio w.index_hits (w.index_hits + w.scans), "1");
    ("eval.strand.delta_group_mean", ratio w.delta_tuples w.groups, "count");
    ("runtime.timer.ms_per_op", ms "runtime.timer", "ms");
    ("runtime.timer.calls_per_op", calls "runtime.timer", "count");
    ("runtime.insert.ms_per_op", ms "runtime.insert", "ms");
    ("runtime.inserts_per_op", per_op (float_of_int inserts), "count");
    ("runtime.create.ms_per_op", ms "runtime.create", "ms");
    ("runtime.deliver.ms_per_op", ms "runtime.deliver", "ms");
    ("transport.send.msgs_per_op", per_op (float_of_int t.sends), "count");
    ("transport.send.drop_share", ratio t.drops t.sends, "1");
    ("sim.dispatch.ms_per_op", ms "runtime.run", "ms");
    ("sim.events_per_op", per_op (float_of_int t.events), "count");
    ("trace.residual_share", Tracer.residual_share t.tr "op", "1");
  ]
