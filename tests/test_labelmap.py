import numpy as np
import pytest

from trackmerge.errors import TrackmergeError
from trackmerge.labelmap import LabelMap, read_pgm, write_pgm


class TestPgm:
    # the payload starts with the bytes of '#', '\n' and ' ', which must not
    # be read as part of the header
    LABELS = np.array([[35, 10, 32], [0, 1, 255]], np.uint8)

    def test_round_trip(self, tmp_path):
        lm = LabelMap(3, 2, self.LABELS)
        write_pgm(lm, tmp_path / "a.pgm")
        assert read_pgm(tmp_path / "a.pgm") == lm

    def test_header_comments_accepted(self, tmp_path):
        header = b"P5\n# made by hand\n3 # width\n2\n#maxval next\n255\n"
        (tmp_path / "a.pgm").write_bytes(header + self.LABELS.tobytes())
        assert read_pgm(tmp_path / "a.pgm") == LabelMap(3, 2, self.LABELS)

    def test_unterminated_comment_rejected(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(b"P5 3 2 # no end")
        with pytest.raises(TrackmergeError, match="P5"):
            read_pgm(tmp_path / "a.pgm")
