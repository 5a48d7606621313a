from costs import cold_block


def test_prints_one_line_per_alphabet():
    # Small sizes and one call each: the test reads the lines' shape, not the figures.
    assert [line.split()[:2] for line in cold_block(sizes=(40, 80), repeats=1)] == [["4", "letters"], ["12", "letters"]]
