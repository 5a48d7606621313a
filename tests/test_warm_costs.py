from costs import WARM_KINDS, warm_block


def test_prints_one_line_per_kind_and_size():
    out = list(warm_block())
    assert [line.split()[:4] for line in out] == [[kind, "n", "=", str(n)] for kind, sizes in WARM_KINDS for n in sizes]
    for line in out:
        words = line.split()
        assert words[4::3] == ["iso_nonrooted", "_classes"] and words[6::3] == ["ms", "ms"]
        assert float(words[5]) > 0 and float(words[8]) > 0
