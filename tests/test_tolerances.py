from toposval.tolerances import DEFAULT, Tolerances


def test_hash_follows_the_fields():
    # the hash is kept from construction; equal tolerance sets hash equal,
    # overridden copies differ, and dicts keyed by them still work
    same = Tolerances()
    tight = DEFAULT.overridden(certain=1e-12)
    assert same == DEFAULT and hash(same) == hash(DEFAULT)
    assert hash(same) == hash(tuple(DEFAULT.as_dict().values()))
    assert tight != DEFAULT and hash(tight) != hash(DEFAULT)
    assert tight == DEFAULT.overridden(certain=1e-12).overridden()
    assert hash(tight) == hash(Tolerances(**tight.as_dict()))
    memo = {DEFAULT: "default", tight: "tight"}
    assert memo[Tolerances()] == "default" and memo[DEFAULT.overridden(certain=1e-12)] == "tight"
    assert len({DEFAULT, same, tight}) == 2


def test_fields_and_overrides_are_unchanged():
    assert list(DEFAULT.as_dict()) == [
        "herm", "proj_idem", "trace_rank", "psd_floor", "trace_one", "unit_norm", "eig_group",
        "atom", "commute", "certain", "recon", "support_trace", "vector_support", "r_slack",
        "eig_match", "ortho_fixture"]
    assert DEFAULT.overridden(atom=1e-6).as_dict() == {**DEFAULT.as_dict(), "atom": 1e-6}
    assert repr(DEFAULT).startswith("Tolerances(herm=1e-10, proj_idem=1e-09")
