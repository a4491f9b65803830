import netforge


def test_all_has_no_duplicates_and_every_name_resolves():
    assert len(netforge.__all__) == len(set(netforge.__all__))
    for name in netforge.__all__:
        assert hasattr(netforge, name), name
