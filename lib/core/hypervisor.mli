(** Integration API for the high-level system (paper Fig. 7: "this
    system controller also provides APIs for communicating with the
    high-level system to enable an easy system integration").

    A thin command/response layer over {!Runtime}: the hypervisor
    sends line-oriented textual commands; responses start with [ok]
    or [error] on the first line ([metrics] and [trace] append
    detail lines).  Deployments receive stable ids so they can be
    released later.

    {v
      deploy <accel>        ->  ok id=<n> nodes=<i,j> vbs=<k> tiles=<t>
      undeploy <id>         ->  ok
      status                ->  ok live=<n> vbs=<used>/<total> util=<pct>
      nodes                 ->  ok 0:<used>/<total>:<kind> 1:...
      list                  ->  ok <accel> <accel> ...
      deployments           ->  ok <id>:<accel>:<nodes> ...
      rebalance             ->  ok moved=<n> attempted=<m>
                                one unbudgeted Defrag pass: each live
                                deployment on a partially-occupied
                                node may migrate once; a move that
                                cannot be placed rolls back alone
                                (counted in m, not in n)
      fail <node>           ->  ok recovered=<n> lost=<m>
      restore <node>        ->  ok
      migrate <id> [force]  ->  ok moved=<n> nodes=<i,j>
                                re-place a degraded deployment off
                                failed nodes (moved=0 when healthy);
                                [force] consolidates a healthy
                                multi-piece deployment too
      slo                   ->  ok classes=<n> shed_below=<p|off>
                                admitted=<n> shed=<m> followed by one
                                line per admission class
      slo add <class> <prio> <deadline_us> <rate/s> <burst>
                            ->  ok classes=<n> (rebuilds the gate;
                                counters reset)
      slo check <class>     ->  ok class=<c> verdict=<admitted|
                                shed-rate|shed-priority> now=<t>
                                spends one token when admitted
      slo shed <prio|off>   ->  ok shed_below=<p|off>
                                drop classes below this priority
      router                ->  ok groups=<n> outstanding=<m>
                                dispatched=<k> followed by per-accel
                                replica lists (<id>:<outstanding>)
      router dispatch <accel>
                            ->  ok id=<n> outstanding=<m>
                                route one request to the least-loaded
                                replica (weighted by tile count)
      router done <id>      ->  ok id=<n> outstanding=<m>
                                retire one outstanding request
      autoscale             ->  ok autoscale=<on|off> followed by the
                                control-loop configuration
      autoscale on|off      ->  ok autoscale=<on|off>
      autoscale eval <accel>
                            ->  ok accel=<a> decision=<scale-up|
                                scale-down|hold> backlog=<b>
                                replicas=<r> idle=<i>
                                one offline control-loop step over the
                                live router state; actuation is left
                                to the operator (deploy/undeploy)
      sessions              ->  ok sessions=<n> opened=<o> expired=<e>
                                sticky=<h>/<m> held=<k> followed by
                                one line per live front-door session
      session touch <key>   ->  ok key=<k> outstanding=<n> ...
                                open (or refresh) a client session at
                                the cluster's current sim time;
                                [session open] is an alias
      session expire        ->  ok expired=<n> [keys]
                                reap sessions idle past the timeout
                                (outstanding requests keep a session
                                alive)
      mapcache <capacity>   ->  ok mapcache=on capacity=<c>
                                install the compiled-mapping LRU
      mapcache off          ->  ok mapcache=off
      mapcache              ->  ok mapcache=... hit/miss/eviction
                                stats plus cached keys, MRU first
      mapcache lookup <accel>
                            ->  ok hit|miss accel=<a> key=<sig>
                                probe (and on miss fill) the cache
                                with the accelerator's canonical
                                shape signature — a hit names the
                                accel whose compilation it reuses
      inject <plan>         ->  ok events=<n> recovered=<r> lost=<l> now=<t>
                                run a Fault_plan (crash@t:n,restore@t:n,
                                degrade@t:us) to completion on the
                                cluster simulator; crashes fail over
      faults                ->  ok failed=<nodes|-> degraded=<ids|->
                                added_latency_us=<v>
      index                 ->  ok consistent=<bool>
                                the capacity index agrees with the
                                ViTAL controllers
      metrics               ->  ok counters=<n> histograms=<m> spans=<k>
                                followed by the live Obs registry
      metrics json          ->  ok <one-line JSON export>
      trace <substring>     ->  ok matched=<n> followed by span lines
      timeline              ->  ok events=<recorded> shown=<n> dropped=<k>
                                followed by the newest lifecycle-trace
                                events (sim time, phase, task/node/
                                deployment ids, retries, label)
      timeline on|off       ->  ok tracing=<on|off>
                                toggles lifecycle tracing (off by
                                default; see Obs.Trace)
      top                   ->  ok nodes=<n> kinds=<m> followed by
                                per-node occupancy/completions and
                                per-kind sojourn latency, read from
                                the labeled sysim metric series
      series                ->  ok series=<n> followed by one line per
                                registered telemetry time-series
                                (kind, interval, live buckets, totals)
      series <name>         ->  ok kind=<k> interval=<us> live=<n>
                                total=<m> followed by the live ring's
                                buckets (start time, count, value)
      alerts                ->  ok rules=<n> firing=<m> followed by
                                per-rule state and the transition log
      alerts eval           ->  ok evaluated rules=<n> firing=<m>
                                now=<t>   evaluate every rule once at
                                the cluster's current sim time
      alert add <rule-spec> ->  ok rules=<n>
                                add ';'-separated Alert rules (grammar
                                in Mlv_obs.Alert: threshold and
                                burn-rate forms)
      counters reset        ->  ok   (zeroes counters/histograms/spans)
      help                  ->  ok <command list>
    v} *)

type t

(** [create runtime] wraps a runtime controller. *)
val create : Runtime.t -> t

(** [handle t command] executes one command line and returns the
    response line.  Never raises: malformed input yields
    [error ...].  While the command runs, the cluster's simulator is
    the sim-time source of the spans and lifecycle events it emits. *)
val handle : t -> string -> string

(** [live_handles t] lists currently tracked deployment ids. *)
val live_handles : t -> int list
