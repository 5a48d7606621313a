from costs import warm_block

# Small sizes, few calls and one pair each: the test reads the lines' shape,
# not the figures.
KINDS = (("renamed", (20, 40)), ("rerooted", (20, 40)), ("lifted", (8, 16)))


def test_prints_one_line_per_kind_and_size():
    out = list(warm_block(kinds=KINDS, repeats=3, pairs=1))
    assert [line.split()[:4] for line in out] == [[kind, "n", "=", str(n)] for kind, sizes in KINDS for n in sizes]
    for line in out:
        words = line.split()
        assert words[4::3] == ["iso_nonrooted", "_classes"] and words[6::3] == ["ms", "ms"]
        assert float(words[5]) > 0 and float(words[8]) > 0
