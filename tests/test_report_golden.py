"""Golden report hashes: the serialized output of fixed CLI configs is pinned
byte for byte, by the full sha256 of what the command writes to stdout.

Any change to the arithmetic path that alters a single character of these
reports (a residual string, a sample record, the order of checks) fails
here.  ``poisson action --model sl2-grassmann`` is absent because it is a
usage error (exit 2, nothing on stdout).  ``poisson action`` and
``poisson jacobi --model sl2-grassmann`` run the same experiments as
``run --experiment diagonal-action`` and ``run --model sl2-grassmann
--experiment jacobi`` and so share their hashes.  The ``invariants``,
``git ring``, ``charvar`` and ``lie`` configs pin what exact elimination
(``Matrix.rref`` and ``kernel_basis``) puts in a report; the ``lie build``
configs also pin the sl_n structure constants.  The seed-7 ``run`` configs
pin the gradient and bracket paths (tangency, gluing, the product-bracket
and projection identities, the quotient tables) at a second seed.
"""

import hashlib

import pytest

from wonderland.cli import main as cli_main

GRASS_DIAGONAL = "[[1,0,0,1,0,0],[0,1,0,0,1,0],[0,0,1,0,0,1]]"

GOLDEN = {
    "run --experiment all --samples 20 --seed 42":
        "5812d54ae5cb3fd8786a46bb11be9694cd1ea6a16dc8ce17b259be98d5bcb24a",
    "run --experiment all --samples 20 --seed 7":
        "493758c5b7f140a5a2ee09c2e18536c5751e6283fc8c19fea0c58af29907c6e1",
    "run --experiment tangency --seed 7":
        "854eed12b4a3e37b6bb1da8200e634b9623b13673a60602d792c779b235e2d14",
    "run --experiment glue --seed 7":
        "be23171bcaecd1cb00f96a194c614c1ebb827e200ac0990912a23752e64527c0",
    "run --experiment f2-demo --seed 7":
        "eddd1c13e16b791eaab96b242bb132ecd3ae89781cbf54f1511d5f03fd597ba2",
    "run --model sl2-grassmann --experiment jacobi --seed 42":
        "6489eba5a5ea61bf4e59cd9f50115795c6ecedd1d38049f82026fb6fee5c18ce",
    "run --model sl2-grassmann --experiment action --seed 42":
        "de40151e0ffa2a4a2fc5cf20ff946ad30bb4a208291093f9c987c430a914f78b",
    "run --experiment diagonal-action":
        "4fad188213c35211cb093e7d370c46680bf853e1dfc1d4e169e7653ecaa2acbe",
    "run --experiment multiplicativity":
        "2c89d44bcf0a8a15e65e89e9f726265fbc8db01a4b70b350460a0320d637a668",
    "run --experiment diagonal-action --n 3":
        "f8aa47aaf423c822bb2d7ad46a22e614eaf82757faaa322d074cda8c5c2cd562",
    "run --experiment action --seed 3":
        "d76ba1cb5fcfee0aae4b1599be1234be2fb5e60065ae76edbe1d638ca6cd3afa",
    "poisson jacobi":
        "6dd55391bb791ab3f46f4a77ad8bdb5cee472db3ca5e8bd5222046fd1288d05c",
    "poisson action":
        "4fad188213c35211cb093e7d370c46680bf853e1dfc1d4e169e7653ecaa2acbe",
    "poisson jacobi --model sl2-grassmann":
        "6489eba5a5ea61bf4e59cd9f50115795c6ecedd1d38049f82026fb6fee5c18ce",
    "poisson tangency":
        "da9b56585f95001d0f9ac7ff9f5bd3b2398815b0a6242c6025bfd050f096d2e8",
    "git glue":
        "4348e5b8a8239c78e9ed2ac0fc3525604c93595a4a2b55aa82af2252ecf98896",
    "geom orbit-dim --model grassmann --point " + GRASS_DIAGONAL:
        "a8938e932dee1fa1b768f7b95083bdc32329ead9cffc5ae39e6eb7cd4d6ed20f",
    "invariants --action conj-m2 --degree 6":
        "937e4102ae96f750b78bf25a27c35f15c0d9ffffd8d80514f6e471fc369ab891",
    "invariants --action conj-m2x2 --multidegree 3,3":
        "92b02b2b80c2743fc54f860db2507ec2adb2cdb659022fdf3a6bf189f1dd1d06",
    "git ring --r 2 --degree 3":
        "610a3f3cd922df88280f5a1fc8f199e296ffa03fc85cf78a961b91e232b2635d",
    "git ring --r 1 --degree 4":
        "27655e06b7f580abcf991888b702e11fa848f3f354340e8a28b718c1b362b28a",
    "invariants express":
        "5a2c6042d32f1080a7631cabfad50146872783c73f1448e01bc7323ed451f99a",
    "git saturation --seed 3":
        "e75385dc99de593120c26bfd86772c777ad3e86ff22788729a26e37d637bdb7c",
    "run --experiment f2-demo":
        "42e77c2ba46bdf256c1cdc0f497134fffc7106f389fe86db3c55db34cd1daa89",
    "run --experiment rank1":
        "d48a85baf7ecc8c5bcb64aea4159741177f8769c073a444734144e1f206f4bf8",
    "charvar rank1":
        "3df084532e9d2622d08d101ee8c84cd040aae142bd52d45e29b130b86836a822",
    "lie splitting --n 3":
        "2f240f8b41581fa25eae574d6fe988177d18043300a49985b705deb0caee5ecc",
    "lie build --n 3":
        "40eede4cf71646033cc8e4e5ab0c857d97fb9cedba95a303aa751bb121e5a859",
    "lie build --n 4":
        "873113301dc0e93ba05beaa09fccc383bc1359187a2db3e29e602942b5692f86",
    "lie splitting --n 4":
        "1192518e3c8a40674537be20c52ba4f3c057e0212c0b92f4875662e5497c0e73",
}


def _argv(config):
    head, sep, point = config.partition(" --point ")
    return head.split() + (["--point", point] if sep else [])


@pytest.mark.parametrize("config", list(GOLDEN))
def test_report_bytes_are_pinned(config, capsys):
    assert cli_main(_argv(config)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[config]
