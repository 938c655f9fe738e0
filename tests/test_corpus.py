from pneq import corpus


def test_default_profile_passes_and_excludes_slow_cases():
    results = corpus.run_corpus(include_slow=False)
    assert results, "corpus must not be empty"
    failures = [r for r in results if not r.passed]
    assert not failures, failures
    slow_names = {c.name for c in corpus.load_cases() if c.slow}
    assert not ({r.name for r in results} & slow_names)


def test_every_verdict_matches_the_expected_status():
    for r in corpus.run_corpus(include_slow=False):
        assert r.verdict == r.expected, r.name


def test_oracle_cross_checks_run_on_bounded_related_cases():
    results = {r.name: r for r in corpus.run_corpus(include_slow=False)}
    # bounded related place-based cases must pass the graph-level oracle
    for case in corpus.load_cases():
        if case.slow or case.query["eq"] in ("int", "bint"):
            continue
        r = results[case.name]
        if r.verdict != "related":
            assert r.oracle == ""
        elif case.oracle_skip:
            assert r.oracle == "skipped"
        else:
            assert r.oracle == "ok", case.name


def test_case_tags_are_well_formed():
    for case in corpus.load_cases():
        assert case.expected in ("related", "not-related")
        assert set(case.tags) <= {"slow", "oracle-skip"}
        assert case.query["eq"] in ("place", "dplace", "bplace", "bdplace", "int", "bint")


def test_graph_cases_report_where_the_oracle_spent_its_time():
    graph = {c.name for c in corpus.load_cases() if c.query["eq"] in ("int", "bint")}
    results = [r for r in corpus.run_corpus(include_slow=False) if r.name in graph]
    assert results
    for r in results:
        assert set(r.stats) == {
            "states", "edges", "reach_s", "refine_s", "refine_rounds"
        }, r.name
        assert r.stats["reach_s"] >= 0 and r.stats["refine_s"] >= 0
        assert r.stats["refine_rounds"] >= 1


def test_the_runner_parses_each_net_once(monkeypatch):
    # The cases of one net share its compiled tables, so each net file is
    # parsed once per run; a case still runs on its own given its net.
    loaded = []
    load_net = corpus.load_net
    monkeypatch.setattr(corpus, "load_net", lambda name: loaded.append(name) or load_net(name))
    cases = [c for c in corpus.load_cases() if not c.slow]
    results = corpus.run_corpus(include_slow=False)
    assert sorted(loaded) == sorted({c.net for c in cases})
    assert len(loaded) < len(results) == len(cases)  # 10 nets, 19 cases when written
    case = cases[0]
    alone = corpus.run_case(case, load_net(case.net))
    assert (alone.name, alone.verdict, alone.passed) == (case.name, results[0].verdict, True)
