from costs import disc_block

NAMES = ["unfold_pdfa", "unfold_mnfa"] * 2 + ["ray", "end_cone", "reroot_disc", "DiscTree"]


def test_prints_one_line_per_operation_and_size():
    # Small sizes and one call each: the test reads the lines' shape, not the figures.
    out = list(disc_block(sizes=(50, 200), ray=40, derived=100, repeats=1))
    assert [line.split()[0] for line in out] == NAMES
    for line in out:
        words = line.split()
        assert words[2:4] == ["nodes", "radius"] and words[-1] == "ms"
        assert int(words[1]) > 0 and float(words[-2]) > 0
    assert int(out[0].split()[1]) >= 50 and int(out[2].split()[1]) >= 200
    assert out[4].split()[1:5] == ["41", "nodes", "radius", "40"]
