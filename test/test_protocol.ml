(* End-to-end tests of the Daric protocol over the simulated ledger:
   create, update, collaborative close, non-collaborative close, and
   the punish path against a dishonest party replaying an old state. *)

module Tx = Daric_tx.Tx
module Ledger = Daric_chain.Ledger
module Party = Daric_core.Party
module Driver = Daric_core.Driver
module Keys = Daric_core.Keys
module Txs = Daric_core.Txs
module Watchtower = Daric_core.Watchtower

let check = Alcotest.(check bool)

type session = {
  d : Driver.t;
  alice : Party.t;
  bob : Party.t;
}

let make_session ?(delta = 1) ?(seed = 7) () : session =
  let d = Driver.create ~delta ~seed () in
  let alice = Party.create ~pid:"alice" ~seed:(seed + 1) () in
  let bob = Party.create ~pid:"bob" ~seed:(seed + 2) () in
  Driver.add_party d alice;
  Driver.add_party d bob;
  { d; alice; bob }

let open_ok ?(bal_a = 60_000) ?(bal_b = 40_000) ?(rel_lock = 3) (s : session)
    ~(id : string) : unit =
  Driver.open_channel s.d ~id ~alice:s.alice ~bob:s.bob ~bal_a ~bal_b ~rel_lock
    ();
  check "channel becomes operational" true
    (Driver.run_until_operational s.d ~id ~alice:s.alice ~bob:s.bob)

let state (s : session) ~bal_a ~bal_b ~id : Tx.output list =
  let c = Party.chan_exn s.alice id in
  let pk_a, pk_b = Party.main_pks c in
  Txs.balance_state ~pk_a ~pk_b ~bal_a ~bal_b

let update_ok (s : session) ~id ~bal_a ~bal_b : unit =
  let theta = state s ~bal_a ~bal_b ~id in
  check "update completes" true
    (Driver.update_channel s.d ~id ~initiator:s.alice ~responder:s.bob ~theta)

(* ------------------------------------------------------------------ *)

let test_create () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  let c = Party.chan_exn s.alice "chan1" in
  check "state number 0" true (c.Party.sn = 0);
  check "funding on chain" true
    (Ledger.is_unspent (Driver.ledger s.d) (Tx.outpoint_of (Option.get c.Party.fund) 0));
  (* Both parties hold the same split transaction body. *)
  let cb = Party.chan_exn s.bob "chan1" in
  let sa = (Option.get c.Party.split).Party.split_body in
  let sb = (Option.get cb.Party.split).Party.split_body in
  check "identical split bodies" true (Tx.txid sa = Tx.txid sb)

let test_update () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  update_ok s ~id:"chan1" ~bal_a:50_000 ~bal_b:50_000;
  let ca = Party.chan_exn s.alice "chan1" in
  let cb = Party.chan_exn s.bob "chan1" in
  check "sn advanced to 1 on both sides" true (ca.Party.sn = 1 && cb.Party.sn = 1);
  check "flags reset" true (ca.Party.flag = 1 && cb.Party.flag = 1);
  check "revocation signatures stored" true
    (ca.Party.rev_sig_theirs <> None && cb.Party.rev_sig_theirs <> None)

let test_many_updates () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  for k = 1 to 10 do
    update_ok s ~id:"chan1" ~bal_a:(60_000 - (1000 * k)) ~bal_b:(40_000 + (1000 * k))
  done;
  let ca = Party.chan_exn s.alice "chan1" in
  check "sn = 10" true (ca.Party.sn = 10)

let test_collaborative_close () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  update_ok s ~id:"chan1" ~bal_a:10_000 ~bal_b:90_000;
  Party.request_close s.alice (Driver.ctx s.d "alice") ~id:"chan1";
  Driver.run s.d 10;
  check "alice saw CLOSED" true
    (Driver.saw_event s.alice (function Party.Closed _ -> true | _ -> false));
  check "bob saw CLOSED" true
    (Driver.saw_event s.bob (function Party.Closed _ -> true | _ -> false));
  List.iter
    (fun pred ->
      check "exists_event = exists over events" true
        (Party.exists_event s.alice pred
        = List.exists (fun (_, ev) -> pred ev) (Party.events s.alice)))
    [ (function Party.Closed _ -> true | _ -> false);
      (function Party.Punished _ -> true | _ -> false);
      (fun _ -> true) ];
  (* The final state must sit on chain: one UTXO of 10k for A, 90k for B. *)
  let c = Party.chan_exn s.alice "chan1" in
  let fund_op = Tx.outpoint_of (Option.get c.Party.fund) 0 in
  let spender = Option.get (Ledger.spender_of (Driver.ledger s.d) fund_op) in
  check "fin split pays the last state" true
    (List.map (fun (o : Tx.output) -> o.value) spender.Tx.outputs
    = [ 10_000; 90_000 ])

let test_non_collaborative_close () =
  let s = make_session () in
  open_ok s ~id:"chan1" ~rel_lock:3;
  update_ok s ~id:"chan1" ~bal_a:30_000 ~bal_b:70_000;
  (* Bob goes silent; Alice times out on the close request and
     force-closes; after T rounds her split lands. *)
  Driver.corrupt s.d "bob";
  Party.request_close s.alice (Driver.ctx s.d "alice") ~id:"chan1";
  Driver.run s.d 20;
  check "alice force-closed" true
    (Driver.saw_event s.alice (function Party.Force_closed _ -> true | _ -> false));
  check "alice saw CLOSED" true
    (Driver.saw_event s.alice (function Party.Closed _ -> true | _ -> false));
  let c = Party.chan_exn s.alice "chan1" in
  let fund_op = Tx.outpoint_of (Option.get c.Party.fund) 0 in
  let commit = Option.get (Ledger.spender_of (Driver.ledger s.d) fund_op) in
  let split =
    Option.get (Ledger.spender_of (Driver.ledger s.d) (Tx.outpoint_of commit 0))
  in
  check "split pays the latest state" true
    (List.map (fun (o : Tx.output) -> o.value) split.Tx.outputs
    = [ 30_000; 70_000 ])

(* A dishonest party publishes a revoked commit; the honest counter-party
   punishes and takes all channel funds (Section 4.4 / Fig 3). *)
let test_punish_old_state () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  (* The adversary (Bob) snapshots his state-0 commit before updating. *)
  let cb = Party.chan_exn s.bob "chan1" in
  let old_commit = Option.get cb.Party.commit_mine in
  update_ok s ~id:"chan1" ~bal_a:90_000 ~bal_b:10_000;
  update_ok s ~id:"chan1" ~bal_a:95_000 ~bal_b:5_000;
  (* Bob turns dishonest and replays state 0 (where he had 40k). *)
  Driver.corrupt s.d "bob";
  Driver.adversary_post s.d old_commit;
  Driver.run s.d 10;
  check "alice saw PUNISHED" true
    (Driver.saw_event s.alice (function Party.Punished _ -> true | _ -> false));
  (* Alice's revocation transaction took the full 100k. *)
  let ca = Party.chan_exn s.alice "chan1" in
  let rv = Option.get ca.Party.punish_posted in
  check "revocation pays full capacity to alice" true
    (Tx.total_output_value rv = 100_000);
  check "revocation on chain" true
    (Ledger.is_unspent (Driver.ledger s.d) (Tx.outpoint_of rv 0))

(* The punishment must land before the cheater can use the split path:
   the split branch is blocked by T, the revocation branch is instant. *)
let test_punish_beats_split () =
  let s = make_session ~delta:2 () in
  open_ok s ~id:"chan1" ~rel_lock:5;
  let cb = Party.chan_exn s.bob "chan1" in
  let old_commit = Option.get cb.Party.commit_mine in
  let old_split = Option.get cb.Party.split in
  update_ok s ~id:"chan1" ~bal_a:90_000 ~bal_b:10_000;
  Driver.corrupt s.d "bob";
  Driver.adversary_post s.d old_commit;
  (* Bob tries to settle the old state immediately with its split —
     the CSV delay T makes the attempt invalid while the revocation
     flies through. *)
  Driver.step s.d;
  let commit_op = Tx.outpoint_of old_commit 0 in
  let script =
    Daric_core.Txs.commit_script_of ~role:Keys.Bob
      ~keys_a:(fst (Party.keys_ab cb)) ~keys_b:(snd (Party.keys_ab cb))
      ~s0:cb.Party.cfg.s0 ~i:0 ~rel_lock:cb.Party.cfg.rel_lock
  in
  let split_attempt =
    Txs.complete_split old_split.Party.split_body ~commit_outpoint:commit_op
      ~commit_script:script ~sig_a:old_split.Party.split_sig_a
      ~sig_b:old_split.Party.split_sig_b
  in
  Driver.adversary_post s.d split_attempt;
  Driver.run s.d 12;
  check "alice punished despite split race" true
    (Driver.saw_event s.alice (function Party.Punished _ -> true | _ -> false))

(* Old revocation/split transactions cannot spend the latest commit:
   state ordering via nLockTime vs the CLTV in the commit script. *)
let test_state_ordering () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  let cb = Party.chan_exn s.bob "chan1" in
  let old_split = Option.get cb.Party.split in
  update_ok s ~id:"chan1" ~bal_a:90_000 ~bal_b:10_000;
  (* Alice closes non-collaboratively with the latest commit. *)
  Driver.corrupt s.d "bob";
  let ca = Party.chan_exn s.alice "chan1" in
  let latest_commit = Option.get ca.Party.commit_mine in
  Driver.adversary_post s.d latest_commit;
  Driver.step s.d;
  (* Bob tries to spend it with the REVOKED state-0 split. *)
  let script =
    Daric_core.Txs.commit_script_of ~role:Keys.Alice
      ~keys_a:(fst (Party.keys_ab cb)) ~keys_b:(snd (Party.keys_ab cb))
      ~s0:cb.Party.cfg.s0 ~i:1 ~rel_lock:cb.Party.cfg.rel_lock
  in
  let stale =
    Txs.complete_split old_split.Party.split_body
      ~commit_outpoint:(Tx.outpoint_of latest_commit 0) ~commit_script:script
      ~sig_a:old_split.Party.split_sig_a ~sig_b:old_split.Party.split_sig_b
  in
  Driver.adversary_post s.d stale;
  Driver.run s.d 10;
  (* The commit output must have been claimed by the CURRENT split
     (posted by honest Alice), not the stale one. *)
  let spender =
    Option.get
      (Ledger.spender_of (Driver.ledger s.d) (Tx.outpoint_of latest_commit 0))
  in
  check "latest split won" true
    (List.map (fun (o : Tx.output) -> o.value) spender.Tx.outputs
    = [ 90_000; 10_000 ])

(* A watchtower punishes on behalf of an offline client. *)
let test_watchtower_punishes () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  let cb = Party.chan_exn s.bob "chan1" in
  let old_commit = Option.get cb.Party.commit_mine in
  update_ok s ~id:"chan1" ~bal_a:80_000 ~bal_b:20_000;
  let wt = Watchtower.create ~wid:"wt1" () in
  (match Watchtower.record_for s.alice ~id:"chan1" with
  | Some r -> assert (Watchtower.watch wt r)
  | None -> Alcotest.fail "no watchtower record after update");
  Driver.add_watchtower s.d wt;
  (* Both Alice (offline) and Bob (dishonest) stop acting. *)
  Driver.corrupt s.d "alice";
  Driver.corrupt s.d "bob";
  Driver.adversary_post s.d old_commit;
  Driver.run s.d 10;
  check "watchtower reacted" true (Watchtower.punished wt = [ "chan1" ]);
  (* the revocation output belongs to Alice's main key *)
  let commit_spender =
    Option.get
      (Ledger.spender_of (Driver.ledger s.d) (Tx.outpoint_of old_commit 0))
  in
  check "full funds to client" true
    (Tx.total_output_value commit_spender = 100_000)

(* The watchtower must NOT punish the latest commit. *)
let test_watchtower_ignores_latest () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  update_ok s ~id:"chan1" ~bal_a:80_000 ~bal_b:20_000;
  let wt = Watchtower.create ~wid:"wt1" () in
  (match Watchtower.record_for s.alice ~id:"chan1" with
  | Some r -> assert (Watchtower.watch wt r)
  | None -> Alcotest.fail "no record");
  Driver.add_watchtower s.d wt;
  Driver.corrupt s.d "alice";
  let cb = Party.chan_exn s.bob "chan1" in
  let latest = Option.get cb.Party.commit_mine in
  Driver.corrupt s.d "bob";
  Driver.adversary_post s.d latest;
  Driver.run s.d 10;
  check "watchtower stayed quiet" true (Watchtower.punished wt = [])

(* Update abort at the SETUP' step: the responder stops cooperating
   after receiving the initiator's commit signature; the initiator
   force-closes with the newest enforceable state. *)
let test_force_close_mid_update () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  update_ok s ~id:"chan1" ~bal_a:55_000 ~bal_b:45_000;
  let theta = state s ~bal_a:20_000 ~bal_b:80_000 ~id:"chan1" in
  Party.request_update s.alice (Driver.ctx s.d "alice") ~id:"chan1" ~theta ();
  (* Let the updateReq and updateInfo flow, then kill Bob before he
     answers updateComP. *)
  Driver.run s.d 2;
  Driver.corrupt s.d "bob";
  Driver.run s.d 25;
  check "alice force-closed" true
    (Driver.saw_event s.alice (function Party.Force_closed _ -> true | _ -> false));
  check "alice eventually closed" true
    (Driver.saw_event s.alice (function Party.Closed _ -> true | _ -> false))

(* Consensus on update: the responder's environment refuses; the state
   stays unchanged with no on-chain interaction. *)
let test_update_rejected () =
  let d = Driver.create ~delta:1 ~seed:3 () in
  let env_reject =
    { Party.accept_all with
      Party.approve_update = (fun ~id:_ ~theta:_ -> false) }
  in
  let alice = Party.create ~pid:"alice" ~seed:4 () in
  let bob = Party.create ~env:env_reject ~pid:"bob" ~seed:5 () in
  Driver.add_party d alice;
  Driver.add_party d bob;
  Driver.open_channel d ~id:"chan1" ~alice ~bob ~bal_a:60_000 ~bal_b:40_000 ();
  Alcotest.(check bool) "operational" true
    (Driver.run_until_operational d ~id:"chan1" ~alice ~bob);
  let c = Party.chan_exn alice "chan1" in
  let pk_a, pk_b = Party.main_pks c in
  let theta = Txs.balance_state ~pk_a ~pk_b ~bal_a:1_000 ~bal_b:99_000 in
  Party.request_update alice (Driver.ctx d "alice") ~id:"chan1" ~theta ();
  Driver.run d 8;
  check "alice reverted to operational" true
    (Driver.channel_operational alice ~id:"chan1");
  check "state unchanged" true ((Party.chan_exn alice "chan1").Party.sn = 0);
  check "no force close" true
    (not (Driver.saw_event alice (function Party.Force_closed _ -> true | _ -> false)))

(* Optimistic update: honest parties never touch the ledger. *)
let test_optimistic_update_no_chain () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  let txs_before = List.length (Ledger.accepted (Driver.ledger s.d)) in
  for k = 1 to 5 do
    update_ok s ~id:"chan1" ~bal_a:(60_000 - k) ~bal_b:(40_000 + k)
  done;
  let txs_after = List.length (Ledger.accepted (Driver.ledger s.d)) in
  check "no ledger interaction during updates" true (txs_before = txs_after)

(* Both parties request an update in the same round: the paper's
   wrapper drops updateReq while another update is in flight, so both
   attempts fizzle and the channel stays consistent. *)
let test_concurrent_update_requests () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  let theta_a = state s ~bal_a:70_000 ~bal_b:30_000 ~id:"chan1" in
  let theta_b = state s ~bal_a:30_000 ~bal_b:70_000 ~id:"chan1" in
  Party.request_update s.alice (Driver.ctx s.d "alice") ~id:"chan1"
    ~theta:theta_a ();
  Party.request_update s.bob (Driver.ctx s.d "bob") ~id:"chan1" ~theta:theta_b ();
  Driver.run s.d 12;
  let ca = Party.chan_exn s.alice "chan1" in
  let cb = Party.chan_exn s.bob "chan1" in
  check "both back to operational" true
    (ca.Party.phase = Party.Operational && cb.Party.phase = Party.Operational);
  check "no state divergence" true
    (ca.Party.sn = cb.Party.sn && Party.outputs_equal ca.Party.st cb.Party.st);
  (* the channel still works afterwards *)
  update_ok s ~id:"chan1" ~bal_a:45_000 ~bal_b:55_000

(* One party runs several independent channels concurrently. *)
let test_multiple_channels_per_party () =
  let d = Driver.create ~delta:1 ~seed:17 () in
  let hub = Party.create ~pid:"hub" ~seed:1 () in
  let p1 = Party.create ~pid:"p1" ~seed:2 () in
  let p2 = Party.create ~pid:"p2" ~seed:3 () in
  let p3 = Party.create ~pid:"p3" ~seed:4 () in
  List.iter (Driver.add_party d) [ hub; p1; p2; p3 ];
  List.iteri
    (fun i peer ->
      Driver.open_channel d ~id:(Fmt.str "hub%d" i) ~alice:hub ~bob:peer
        ~bal_a:50_000 ~bal_b:50_000 ())
    [ p1; p2; p3 ];
  Driver.run d 12;
  List.iteri
    (fun i peer ->
      let id = Fmt.str "hub%d" i in
      check (id ^ " operational") true
        (Driver.channel_operational hub ~id
        && Driver.channel_operational peer ~id))
    [ p1; p2; p3 ];
  (* update them in interleaved fashion *)
  List.iteri
    (fun i peer ->
      let id = Fmt.str "hub%d" i in
      let c = Party.chan_exn hub id in
      let pk_a, pk_b = Party.main_pks c in
      let theta =
        Txs.balance_state ~pk_a ~pk_b
          ~bal_a:(40_000 - (1_000 * i))
          ~bal_b:(60_000 + (1_000 * i))
      in
      check (id ^ " updates") true
        (Driver.update_channel d ~id ~initiator:hub ~responder:peer ~theta))
    [ p1; p2; p3 ];
  (* one peer cheats; only that channel is affected *)
  let cheat_commit = Option.get (Party.chan_exn p2 "hub1").Party.commit_mine in
  let c1 = Party.chan_exn hub "hub1" in
  let pk_a, pk_b = Party.main_pks c1 in
  let theta = Txs.balance_state ~pk_a ~pk_b ~bal_a:10_000 ~bal_b:90_000 in
  check "hub1 second update" true
    (Driver.update_channel d ~id:"hub1" ~initiator:hub ~responder:p2 ~theta);
  Driver.corrupt d "p2";
  Driver.adversary_post d cheat_commit;
  Driver.run d 10;
  check "hub punished on hub1" true
    (Driver.saw_event hub (function Party.Punished "hub1" -> true | _ -> false));
  check "hub0 untouched" true (Driver.channel_operational hub ~id:"hub0");
  check "hub2 untouched" true (Driver.channel_operational hub ~id:"hub2")

(* The responder can also be the one to notice fraud while an update is
   in flight (flag = 2): the punish daemon covers both active states. *)
let test_punish_during_pending_update () =
  let s = make_session () in
  open_ok s ~id:"chan1";
  let old_commit = Option.get (Party.chan_exn s.bob "chan1").Party.commit_mine in
  update_ok s ~id:"chan1" ~bal_a:80_000 ~bal_b:20_000;
  (* start another update but freeze it mid-flight *)
  let theta = state s ~bal_a:75_000 ~bal_b:25_000 ~id:"chan1" in
  Party.request_update s.alice (Driver.ctx s.d "alice") ~id:"chan1" ~theta ();
  Driver.run s.d 2 (* updateReq delivered, updateInfo sent *);
  (* now bob turns dishonest and posts the state-0 commit *)
  Driver.corrupt s.d "bob";
  Driver.adversary_post s.d old_commit;
  Driver.run s.d 12;
  check "alice punished despite pending update" true
    (Driver.saw_event s.alice (function Party.Punished _ -> true | _ -> false))

(* Watchtower coverage: ALL guarded channels are breached in the same
   round; the tower punishes every one within the dispute window (no
   per-channel collateral limits in Daric, unlike FPPW/Cerberus). *)
let test_watchtower_mass_breach () =
  let d = Driver.create ~delta:1 ~seed:73 () in
  let wt = Watchtower.create ~wid:"tower" () in
  Driver.add_watchtower d wt;
  let n = 6 in
  let chans =
    List.init n (fun i ->
        let a = Party.create ~pid:(Fmt.str "a%d" i) ~seed:(300 + i) () in
        let b = Party.create ~pid:(Fmt.str "b%d" i) ~seed:(400 + i) () in
        Driver.add_party d a;
        Driver.add_party d b;
        let id = Fmt.str "w%d" i in
        Driver.open_channel d ~id ~alice:a ~bob:b ~bal_a:50_000 ~bal_b:50_000 ();
        assert (Driver.run_until_operational d ~id ~alice:a ~bob:b);
        let snapshot = Option.get (Party.chan_exn b id).Party.commit_mine in
        let c = Party.chan_exn a id in
        let pk_a, pk_b = Party.main_pks c in
        let theta = Txs.balance_state ~pk_a ~pk_b ~bal_a:70_000 ~bal_b:30_000 in
        assert (Driver.update_channel d ~id ~initiator:a ~responder:b ~theta);
        (match Watchtower.record_for a ~id with
        | Some r -> assert (Watchtower.watch wt r)
        | None -> Alcotest.fail "no record");
        Driver.corrupt d a.Party.pid;
        Driver.corrupt d b.Party.pid;
        (id, snapshot))
  in
  (* every cheater fires in the same round *)
  List.iter (fun (_, snap) -> Driver.adversary_post d snap) chans;
  Driver.run d 8;
  check "tower punished all channels simultaneously" true
    (List.length (Watchtower.punished wt) = n)

(* Closure works symmetrically from the Bob side. *)
let test_close_initiated_by_bob () =
  let s = make_session ~seed:41 () in
  open_ok s ~id:"chan1";
  update_ok s ~id:"chan1" ~bal_a:25_000 ~bal_b:75_000;
  Party.request_close s.bob (Driver.ctx s.d "bob") ~id:"chan1";
  Driver.run s.d 10;
  check "both closed" true
    (Driver.saw_event s.alice (function Party.Closed _ -> true | _ -> false)
    && Driver.saw_event s.bob (function Party.Closed _ -> true | _ -> false));
  let c = Party.chan_exn s.bob "chan1" in
  let spender =
    Option.get
      (Ledger.spender_of (Driver.ledger s.d)
         (Tx.outpoint_of (Option.get c.Party.fund) 0))
  in
  check "final state on chain" true
    (List.map (fun (o : Tx.output) -> o.value) spender.Tx.outputs
    = [ 25_000; 75_000 ])

(* The counter-party's environment refuses the collaborative close:
   the requester times out and force-closes with the same final
   balances (the ideal functionality's "Q disagreed" branch). *)
let test_close_refused_forces_unilateral () =
  let d = Driver.create ~delta:1 ~seed:43 () in
  let env_refuse =
    { Party.accept_all with Party.approve_close = (fun ~id:_ -> false) }
  in
  let alice = Party.create ~pid:"alice" ~seed:1 () in
  let bob = Party.create ~env:env_refuse ~pid:"bob" ~seed:2 () in
  Driver.add_party d alice;
  Driver.add_party d bob;
  Driver.open_channel d ~id:"c" ~alice ~bob ~bal_a:60_000 ~bal_b:40_000 ();
  assert (Driver.run_until_operational d ~id:"c" ~alice ~bob);
  Party.request_close alice (Driver.ctx d "alice") ~id:"c";
  Driver.run d 20;
  check "alice force-closed" true
    (Driver.saw_event alice (function Party.Force_closed _ -> true | _ -> false));
  check "alice closed with latest state" true
    (Driver.saw_event alice (function Party.Closed _ -> true | _ -> false));
  let c = Party.chan_exn alice "c" in
  let commit =
    Option.get
      (Ledger.spender_of (Driver.ledger d)
         (Tx.outpoint_of (Option.get c.Party.fund) 0))
  in
  let split =
    Option.get (Ledger.spender_of (Driver.ledger d) (Tx.outpoint_of commit 0))
  in
  check "split pays initial state" true
    (List.map (fun (o : Tx.output) -> o.value) split.Tx.outputs
    = [ 60_000; 40_000 ])

(* Bob can also be the update initiator (role symmetry of the update
   sub-protocol). *)
let test_update_initiated_by_bob () =
  let s = make_session ~seed:47 () in
  open_ok s ~id:"chan1";
  let theta = state s ~bal_a:45_000 ~bal_b:55_000 ~id:"chan1" in
  check "bob-initiated update completes" true
    (Driver.update_channel s.d ~id:"chan1" ~initiator:s.bob ~responder:s.alice
       ~theta);
  let ca = Party.chan_exn s.alice "chan1" in
  check "state agreed" true
    (ca.Party.sn = 1 && Party.outputs_equal ca.Party.st theta);
  (* and alice can still punish a later replay by bob *)
  let cb = Party.chan_exn s.bob "chan1" in
  let old_commit = Option.get cb.Party.commit_mine in
  update_ok s ~id:"chan1" ~bal_a:80_000 ~bal_b:20_000;
  Driver.corrupt s.d "bob";
  Driver.adversary_post s.d old_commit;
  Driver.run s.d 10;
  check "punish works after bob-initiated updates" true
    (Driver.saw_event s.alice (function Party.Punished _ -> true | _ -> false))

let () =
  Alcotest.run "daric-protocol"
    [ ( "lifecycle",
        [ Alcotest.test_case "create" `Quick test_create;
          Alcotest.test_case "update" `Quick test_update;
          Alcotest.test_case "many updates" `Quick test_many_updates;
          Alcotest.test_case "collaborative close" `Quick test_collaborative_close;
          Alcotest.test_case "non-collaborative close" `Quick
            test_non_collaborative_close ] );
      ( "security",
        [ Alcotest.test_case "punish old state" `Quick test_punish_old_state;
          Alcotest.test_case "punish beats split" `Quick test_punish_beats_split;
          Alcotest.test_case "state ordering" `Quick test_state_ordering;
          Alcotest.test_case "watchtower punishes" `Quick test_watchtower_punishes;
          Alcotest.test_case "watchtower ignores latest" `Quick
            test_watchtower_ignores_latest;
          Alcotest.test_case "force close mid-update" `Quick
            test_force_close_mid_update ] );
      ( "consensus",
        [ Alcotest.test_case "update rejected" `Quick test_update_rejected;
          Alcotest.test_case "optimistic update off-chain" `Quick
            test_optimistic_update_no_chain ] );
      ( "concurrency",
        [ Alcotest.test_case "concurrent update requests" `Quick
            test_concurrent_update_requests;
          Alcotest.test_case "multiple channels per party" `Quick
            test_multiple_channels_per_party;
          Alcotest.test_case "punish during pending update" `Quick
            test_punish_during_pending_update;
          Alcotest.test_case "watchtower mass breach" `Quick
            test_watchtower_mass_breach ] );
      ( "symmetry",
        [ Alcotest.test_case "close initiated by bob" `Quick
            test_close_initiated_by_bob;
          Alcotest.test_case "close refused -> unilateral" `Quick
            test_close_refused_forces_unilateral;
          Alcotest.test_case "update initiated by bob" `Quick
            test_update_initiated_by_bob ] ) ]
