from costs import form_block


def test_prints_one_line_per_alphabet():
    assert [line.split()[:2] for line in form_block()] == [["4", "letters"], ["12", "letters"]]
