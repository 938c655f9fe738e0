"""Walkthrough: deciding and verifying the four place-based equivalences.

A verdict of related always carries a witness relation that re-verifies
independently; not-related only ever comes from an exhausted enumeration.

Run with:  PYTHONPATH=src python demos/03_equivalences.py
"""
from pneq import (
    Marking,
    check_relation,
    corpus,
    decide,
    is_tau_sequential,
    parse_marking,
    verify,
)

# The producer-consumer pair: two different unbounded systems that are
# branching place bisimilar.
net = corpus.load_net("producer_consumer.pn")
rel = corpus.load_relation("producer_consumer.rel", net)
m1 = parse_marking("P1+C", net)
m2 = parse_marking("P1'+C'", net)

report = check_relation(net, rel, "bplace")
print("candidate relation passes the game conditions:", report.ok)
print("verify:", verify(net, rel, "bplace", m1, m2).status)

# Guided mode reconstructs a minimal witness from scratch: the exhaustive
# search without its up-front cut, capped, and never answering not-related.
found = decide(net, m1, m2, "bplace", "guided")
print("guided:", found.status, "witness pairs:", len(found.witness))

# Exhaustive enumeration proves a negative: a silent synchronization is
# observable, so it cannot be matched by a single local silent step.
sync = corpus.load_net("silent_sync.pn")
v = decide(
    sync,
    parse_marking("s1+s3", sync),
    parse_marking("s5+s6", sync),
    "bplace",
    "exhaustive",
)
print("\nsilent synchronization vs local step:", v.status)
print("stats:", {k: v.stats[k] for k in ("universe", "relations_examined")})
# Only a silent transition with one input and one output token is a local
# step the branching games can abstract; the silent synchronization t3 is not.
for tid in ("t1", "t3"):
    print(f"  {tid} tau-sequential:", is_tau_sequential(sync, sync.transition_index[tid]))

# The theta-extended kinds can relate a place to the empty marking, which
# lets the spawned dead token on the right be matched away.
spawn = corpus.load_net("spawn_deadlock.pn")
srel = corpus.load_relation("spawn_deadlock.rel", spawn)
print("\ntheta-extended verify:",
      verify(spawn, srel, "dplace", Marking(["s1"]), Marking(["s4"])).status)
