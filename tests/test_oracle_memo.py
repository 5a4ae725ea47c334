"""One filtration oracle per presentation and bound."""

from nkoszul.filtered import OracleEngine, oracle_pbw, pbw_verdict
from nkoszul.grouppres import PsiMap, build_H_psi
from nkoszul.komplex import NComplexSlice
from nkoszul.smashtensor import GroupData


def weyl_presentation():
    return build_H_psi(GroupData.trivial(2), PsiMap(2, 2, 1, {0: {(0, 1): 1}}))


def test_pbw_oracle_and_slices_share_one_run(monkeypatch):
    runs = []
    original = OracleEngine.run

    def counting_run(self):
        if not self._ran:
            runs.append(self.D)
        original(self)

    monkeypatch.setattr(OracleEngine, "run", counting_run)
    pres = weyl_presentation()
    assert pbw_verdict(pres, 4).certified
    assert oracle_pbw(pres, 4).holds
    NComplexSlice(pres, 4)
    assert runs == [4]
    # another bound is another engine
    oracle_pbw(pres, 5)
    assert runs == [4, 5]
    assert pres.oracle(4) is pres.oracle(4)
