"""Golden output hashes: every byte the CLI writes is pinned.

The sha256 of every file written by every FIGURE_RECIPES entry, by one
command per shape family (the determinism command list of the acceptance
gate) and by two commands full of exact rounding ties, plus the exact stdout
of `info --family F` for every family and of `verify --suite all`. A refactor
that keeps these green changed no output byte.

Generated with Python 3.11.7 and numpy 2.4.6. Another numpy may round some
transcendental functions differently in the last ulp; regenerate the table
there only after checking that the acceptance gate passes.
"""

import hashlib

from squircles import cli
from squircles.recipes import FIGURE_RECIPES, run_recipe

FAMILY_COMMANDS = [
    ["curve", "--family", "lame", "-p", "3", "--grid", "128", "--out", "lame.svg"],
    ["curve", "--family", "fg", "-s", "0.7", "--grid", "128", "--format", "csv", "--out", "fg.csv"],
    ["curve", "--family", "periodic", "-s", "0.7", "--grid", "128", "--out", "periodic.svg"],
    ["curve", "--family", "oblique", "-s", "0.7", "--grid", "128", "--out", "oblique.svg"],
    ["curve", "--family", "frantz", "-s", "2", "--samples", "128", "--out", "frantz.svg"],
    ["curve", "--family", "phase_grid", "--grid", "128", "--out", "phase.svg"],
    ["surface", "--family", "lame3d", "-p", "4", "--grid", "32", "--out", "lame3d.obj"],
    ["surface", "--family", "sphube", "-s", "0.5", "--grid", "32", "--format", "stl",
     "--out", "sphube.stl"],
    ["surface", "--family", "periodic3d", "-s", "0.5", "--grid", "32", "--out", "periodic3d.obj"],
    ["surface", "--family", "oblique3d", "-s", "0.5", "--grid", "32", "--out", "oblique3d.obj"],
    ["surface", "--family", "toroid", "--R", "2", "--r", "0.5", "-s", "0.5", "--grid", "32",
     "--out", "toroid.obj"],
    ["surface", "--family", "toroid_octic", "--R", "2", "--r", "0.5", "-s", "0.5", "--grid", "32",
     "--out", "octic.obj"],
    ["surface", "--family", "cone_fg", "-s", "0.8", "--c", "3", "--grid", "32",
     "--out", "cone_fg.obj"],
    ["surface", "--family", "cone_lame", "-p", "1.5", "--c", "2", "--grid", "32",
     "--out", "cone_lame.obj"],
    ["surface", "--family", "cuboctahedron", "--grid", "32", "--format", "stl",
     "--out", "cubocta.stl"],
]

# Commands whose coordinates are exact decimal ties of "%.9f", which rounds
# them half-to-even: a lattice step of 2**-10 puts 51,072 of the 153,378 OBJ
# coordinates and 4,096 CSV values exactly on a half of the 9th decimal.
TIE_COMMANDS = [
    ["surface", "--family", "sphube", "-s", "0.5", "--radius", "0.05",
     "--domain", "-0.0625", "0.0625", "-0.0625", "0.0625", "-0.0625", "0.0625",
     "--grid", "128", "--format", "obj", "--out", "tie_sphube.obj"],
    ["curve", "--family", "fg", "-s", "0.5", "--domain", "-1", "1", "-1", "1",
     "--grid", "2048", "--format", "csv", "--out", "tie_fg.csv"],
]

TIE_SHA256 = {
    "tie_fg.csv": "6a655be7b35336e48a11f776940be56ae0276a7ca59758a6ccc5578fdc282b9e",
    "tie_sphube.obj": "95fc58c7fe2ec971856a07dcb18220b74f3f7e371141a5b1b6623cfec8ad6b65",
}

RECIPE_SHA256 = {
    "fig2/fig2_00.svg": "94b6beb73160b89cf6434ead68c33fd937d69a6becd47d0ffea83e32bd0ad36a",
    "fig2/fig2_01.svg": "bff4d8ac3148d8b4de7518c0dab2a3d86a37e9b51d1cf0039a1580cff43708ee",
    "fig2/fig2_02.svg": "f29f73936cdf9a909af65f3e0de354bd28ebaaefc08ad0645f07a331737a1eac",
    "fig2/fig2_03.svg": "1f1bcd865f06ad861ca0e6c3c3da4a83c5ccbe24b69681d241c48f4f84a6f12b",
    "fig2/fig2_04.svg": "0731b59ac20febfb21d04f814485283a5f41b853ced863fdceffd8c8766bea0d",
    "fig3/fig3_00.obj": "c7d3475597ef3e229060d5e8dba4114caa099f24ee9b7ade7a1df1c4276f9f18",
    "fig3/fig3_01.obj": "cb1f5d89d13f634545024f864d5e4e2e4bc2ba6ae5f69f58652352fcd9874b1e",
    "fig3/fig3_02.obj": "4c7f42f219f9f07ce3a86ba194ed37775575981600c0b48a5cf767b9839e5592",
    "fig3/fig3_03.obj": "eaa232b5a63026b8def914b619db2a32e98885352c6d4e81036f059b0d29fdad",
    "fig4/fig4_00.svg": "7ac19e4dd63e1cce728acedb52062669c9e1f3a1c27d4813eaf4ba2b0df46a8a",
    "fig4/fig4_01.svg": "8a3e12b1c62cce0ac8820e9f9bafc3241ff726ca8da5c6762ecbdd5fb284dd1b",
    "fig4/fig4_02.svg": "e8499771e25248c5d70452431ab52c938ae2b66775c3331be7ccd3c85455abae",
    "fig4/fig4_03.svg": "251a1bb41a0e45f5a3c5c898413aff18dc0f5033627b7803de9cc05be49dd6f4",
    "fig4/fig4_04.svg": "94b6beb73160b89cf6434ead68c33fd937d69a6becd47d0ffea83e32bd0ad36a",
    "fig5/fig5_00.obj": "fd83fc73ef64b715864372b000c1f3f5c8f6fc36b1a6e0edbbf850425e891421",
    "fig5/fig5_01.obj": "9bc5d1bcf6121b8e16be11f5d9fa974543fd70c3ff564f86310501436e3e7bd5",
    "fig5/fig5_02.obj": "358e92851bd27a7deb66db632cb2d37fc2f5af361bc0ebb49bccf96a53358474",
    "fig5/fig5_03.obj": "c7d3475597ef3e229060d5e8dba4114caa099f24ee9b7ade7a1df1c4276f9f18",
    "fig6/fig6_00.svg": "3f1c86338dfa951526bf9fe29a66e7ab2743cfd41a7dc8534a2a6d96d261af0d",
    "fig6/fig6_01.svg": "d6776ec468b165710f7f15777dc6a428a58c090e332c67864b20a0780c956ddd",
    "fig6/fig6_02.svg": "67e474896d7efd184dec32a6182480778d0d9c10ae0cc533765d5d6f45dc3fd4",
    "fig6/fig6_03.svg": "786583e88d0be78a1dbb168021ec391425fa448af87bbe7a89b97860e6f5aeea",
    "fig6/fig6_04.svg": "6929c81f39da53f29d8122d7a1e923e44cbad7a3a342c3d42ad93eaf6f2c2967",
    "fig7/fig7_00.svg": "41fe800b8a2674044951bb1898e924737895bafc57facf2f168cc16c24a9720d",
    "fig7/fig7_01.svg": "d3a8328f5518f342dd0b8fbb207ea5a4166c7b8fc328d178d3e4d74d28eb74bd",
    "fig7/fig7_02.svg": "acffbc9152243814b69b82363eab1ee2ad0504db2236037f3230265b724b1f79",
    "fig7/fig7_03.svg": "a9e948ea1338dc0a7b9d4beb48d2782443b80f6e9aa6265addab9353fe47739b",
    "fig7/fig7_04.svg": "b5d7b8f822bc07276eb4f397ec2e52e79d3a370e2d4d097a599ce080809c6756",
    "fig8/fig8.svg": "930345d92a2a9adf2a12be1e0d45dd37a8dcdf5701767450f23a3b3db96f5d73",
    "fig9/fig9.svg": "c311e4e38700ef0cfced4247ef2739126c0d1ff552ee81c0cf04db0bbd539f05",
    "fig10/fig10_00.obj": "99f42c17cacb2f17ccc1772b9554d943c8f84bd860204a9aa219b7a92af9ab63",
    "fig10/fig10_01.obj": "d23768fb7e57c3f91caea8f88eb32ba21cf4d5ab77fb30133034f0006a83db5c",
    "fig10/fig10_02.obj": "019d5e06d973acb4f8dab4e9f8bb7025ee5ee6699d2bc5d6533fcb5e3a25ce87",
    "fig10/fig10_03.obj": "5ac8db3dd8ce6afcc4628932aa12d2c1b1aa75a5d5c268e397aea5a317de0cdb",
    "fig11/fig11.obj": "3af058841358f9b7089044c0ec44d3e89c7ce913d37c702f65983c3eefb7b5f9",
    "fig12/fig12.svg": "3ba844f2e3b1456dab3c087f1b901ef22eb9bffb05b666c08e9b9f16624e8fae",
    "fig13/fig13.svg": "1262dc566567ee557c458e3853c1fa4b0385e18d84fbac29e6ea879fb5becf16",
    "fig14/fig14.svg": "8b9bd22e9d424e8429479993d5c3dd9af6861d76fa898257f52dc2bf66765000",
    "fig15/fig15_00.svg": "17142cc5c320f80b38635dad94865f408db99a478cb93cd75864241595193bc5",
    "fig15/fig15_01.svg": "62a215528d22bfed50512af5d5313cc4d07f5655b4631b2ff900d4d84732b574",
    "fig15/fig15_02.svg": "cb3c32fa62cf99bc673c0b6add184f7f24070f41c88207f00e14b09ea2b8edd5",
    "fig15/fig15_03.svg": "d4d7bb5741cceb9739835817167f631ef9f8c9838c48c788ccc54e98fd521ed8",
    "fig15/fig15_04.svg": "56148edcbad45fe42294ac67e055213e490217838d6724da7c4ae337ad525282",
    "fig16/fig16.svg": "657643111270b5df96147afa73ec440fa323fb79ebcc6a2d8f3efac89621e80a",
    "fig17/fig17.svg": "c91b701b1b8c1af1dc6f4f3a08a91d6fcfaa9de932cd9ebf27e8c7e6bcfc0dc2",
    "fig18/fig18_00.obj": "894e86510c8370f35f9cf3f5d42cd917a773cef57db7a7c7aafe0312b0f3af3c",
    "fig18/fig18_01.obj": "4cf9637dd25fc03bf5626e48542fba0c4448438132b1159f9686c5595e4dd17a",
    "fig18/fig18_02.obj": "3f5efe98e7692d5ba35ab37ebe6a86ba265bc0857a89d75d22b2530afa09add1",
    "fig18/fig18_03.obj": "e9ce2039ef6630f3d07b5a9b170cfca02f0e526f969b02a9c85777eb9dbe3b85",
    "fig19/fig19.obj": "b8e332a6e599b66c5bd53a9dea8cbe6736d83056b4c98a4661633724254834ad",
    "fig20/fig20_00.svg": "56148edcbad45fe42294ac67e055213e490217838d6724da7c4ae337ad525282",
    "fig20/fig20_01.svg": "cfd50dede1f48be3e28f669079390ec16bcc5c9a0a5784e58f27c072e70a74fe",
    "fig20/fig20_02.svg": "4a54ee1e5ad2c4d05f1a23b42db1348012f1702dcced7f229ff61d4dfa953b4b",
    "fig20/fig20_03.svg": "334e6335d0c09d304bfa310db21b576f00b3a25d13f67050b13b29844cb6a417",
    "fig20/fig20_04.svg": "9619cd0b4524ca5d51f837ceb719ccb9e9f0cfe549f750fcb14f4ea159abd1e1",
    "fig21/fig21.svg": "0e90eeffb30635bed444a9b59fe5cf5441c79d0fd9d2ac9933f3511f307e7606",
    "fig22/fig22_00.obj": "0dcb876322b530ce545bc9ba7a7f893c9e7ce4642df5678464a38441d0a65ae0",
    "fig22/fig22_01.obj": "ab128119fad64bb4171fd01654cdd427984addf3e867c580a016e1171f968df4",
    "fig22/fig22_02.obj": "8d09f909bec82e6190e949062f1a9c2236d38536e9fae4de89de87070d8baaf3",
    "fig22/fig22_03.obj": "c79f469b49d413acb00a194d8ea125b4ad3b292229ecd377ed180394809f2115",
    "fig22/fig22_04.obj": "6851c7b55c3bad9515ac0e1586e204eaabe2196034c08ccb8be1eb857bca4879",
    "fig23/fig23_square.obj": "4729baae4e081be014cca4b40d8c31095d162627b4939954a3337a38741aab3c",
    "fig23/fig23_torus.obj": "d52be17ac3f9b412980b263f98a866efe956d885b377852b518b8444a63b5a7c",
    "fig24/fig24_00.obj": "5266c6940ecec63cfe26b589547d1442cbf1e674ec76f47a530851f0208686ae",
    "fig24/fig24_01.obj": "39f3df96ca7e1d5f486a5af71951dfbafc086de5f57033b52676ca09836cf1af",
    "fig24/fig24_02.obj": "55eef1abd34580ba7f7171df62a149d5a9477f52879ee33d0af844f36a463f90",
    "fig24/fig24_03.obj": "6a0c40157b827f6fd9b3b1d58139cd0e2d2f916d288fecb29095f4748b5c8e7c",
    "fig25/fig25.obj": "33dc49af7354dc6218171fd28ece217eb04e51b0f8afb86db5a0a04f25e06020",
    "fig26/fig26_00.obj": "07c686203428c8f7f6fa17bcc41a1bd3fee40fa482e83e9165ea420106f8d89b",
    "fig26/fig26_01.obj": "8b58d769e24652ac5ea9c3160b30f2d745f6bd98b52b08638763096957a43c98",
    "fig26/fig26_02.obj": "c232d23388aafd8731f4110119361053400fa88a261f7c0b298f797a42ad44dd",
    "fig26/fig26_03.obj": "ed7b56a3b04677369d2f36af9bdc5407a3da25c253b29476809f084a0641b58d",
    "fig27/fig27.obj": "835291bfcb5cc8450b49be6ce8d9e4efbac28595363b1cc62a4e51b13b53745c",
}

COMMAND_SHA256 = {
    "cone_fg.obj": "96fb93263650ae5b39cc3b8889363c7e9659dabe6bbea97f8636821b79bbb382",
    "cone_lame.obj": "70bf7ee35bc5fca5adac4a38a5ff63c636f149e8de416779ad19fbcec6028652",
    "cubocta.stl": "b418aaff2f3d63b6e9a8f3f744ca7b119bfc54948b4218b0c3ae3cac0d2a98f4",
    "fg.csv": "9a1e624572e3a770d52a682d1fa407d729d1686664f0ddee757233aed5285340",
    "frantz.svg": "4f3619d6ce0b0c3fbe68631557390f04fe69097f7ca04f257984da32e4bfaabc",
    "lame.svg": "3ab007433a36d239b30e45b5e5bea4139bfffe2a658b41bfa9a79851e91fe681",
    "lame3d.obj": "22f6a218ee6a2bc95f719886d8ede6c0ad891cb36b3324b93c1450b4641c64bb",
    "oblique.svg": "389f9376f3118cdb44cda170922fe3b18e8bbe330ea141c6a2bb40cde029d94e",
    "oblique3d.obj": "8bb6ba1985328a4d585446cebf0f4c4490d35a7184fabe545542aa4ddfd59a8f",
    "octic.obj": "fb40da77aa2c638ed87ce7d474b23f8a0b475cddc0e7816864a375a7e0633b68",
    "periodic.svg": "1495d500fddfc449b340db53b24121f270e969ed3fafda5f977584933a25cc4e",
    "periodic3d.obj": "0f727bfd6110159fef527531685a56d42c5e1e7b12d0cddfdcb5b38e13724752",
    "phase.svg": "cf4994578df3a9bddc0aba5fb6278eff53c401e9826fb9675065c5988d6a2c3d",
    "sphube.stl": "0085e70b4af3cd9f9fd41500ba73339813b5db8c069bfacbf3cd8703ea1c5295",
    "toroid.obj": "a00572447cb5afbb8d06a1ff626da5839cc2501c1813a97ee25671c0b4fb8fe2",
}

INFO_STDOUT = {
    "lame": "lame: superellipse |x|^p + |y|^p = r^p; p in [1, inf], p=2 circle, p=inf axis square, p=1 tilted square\n",
    "fg": "fg: Fernandez-Guasti quartic x^2 + y^2 - (s^2/r^2) x^2 y^2 = r^2; s in [0, 1]\n",
    "periodic": "periodic: doubly-periodic cos(s pi x/2r) cos(s pi y/2r) = cos(s pi/2); s in (0, 1], square grid at s=1\n",
    "oblique": "oblique: doubly-periodic cos(s pi x/r) + cos(s pi y/r) = 1 + cos(s pi) - floor(s) h; tilted square at s=1, overshoot h in [0, 2]\n",
    "frantz": "frantz: parametric x = r tanh(s cos t)/tanh s, y = r tanh(s sin t)/tanh s; s > 0, square as s -> inf\n",
    "phase_grid": "phase_grid: sin(pi x) sin(pi y) = 0; grid lines through every integer coordinate\n",
    "lame3d": "lame3d: superellipsoid |x|^p + |y|^p + |z|^p = r^p; sphere to cube (or octahedron for p in [1, 2])\n",
    "sphube": "sphube: sphere-cube blend with squareness s in [0, 1]\n",
    "periodic3d": "periodic3d: triply-periodic cosine product; cube with side 2r at s=1\n",
    "oblique3d": "oblique3d: triply-periodic cosine sum; sham octahedron at s=1, overshoot h in [0, 4], sham Schwarz at s=1 r=pi h=1\n",
    "toroid": "toroid: squircular toroid (sqrt form), R > r > 0, cross-section squareness s\n",
    "toroid_octic": "toroid_octic: squircular toroid, equivalent octic polynomial form\n",
    "cone_fg": "cone_fg: squircular cone over a Fernandez-Guasti base, height c, clipped to 0 <= z <= c\n",
    "cone_lame": "cone_lame: squircular cone over a Lame lower base, exponent p in [1, 2], semi-axes a, b, height c\n",
    "cuboctahedron": "cuboctahedron: sham cuboctahedron sextic with scale k and cross-term constant cc in [1.5, 4]\n",
}


# the exact stdout of `verify --suite all`, every value to 7 significant digits
VERIFY_STDOUT = (
    "circle_limit_lame_p2                 value=1.136868e-13 bound=1e-12      PASS\n"
    "circle_limit_fg_s0                   value=1.136868e-13 bound=1e-12      PASS\n"
    "circle_limit_periodic                value=1.027729e-07 bound=1e-03      PASS\n"
    "circle_limit_oblique                 value=2.055676e-07 bound=1e-03      PASS\n"
    "circle_limit_frantz                  value=1.666159e-07 bound=1e-03      PASS\n"
    "convergence_periodic                 value=7.121957e-03 bound=0.5        PASS\n"
    "convergence_oblique                  value=3.786867e-03 bound=0.5        PASS\n"
    "periodicity_periodic_2d              value=1.332268e-15 bound=1e-09      PASS\n"
    "periodicity_oblique_2d               value=1.332268e-15 bound=1e-09      PASS\n"
    "periodicity_periodic_3d              value=1.165734e-15 bound=1e-09      PASS\n"
    "periodicity_oblique_3d               value=1.776357e-15 bound=1e-09      PASS\n"
    "nonperiodic_fg                       value=2.733201e+02 bound=> 0.1      PASS\n"
    "nonperiodic_lame                     value=4.000000e+00 bound=> 0.1      PASS\n"
    "square_case_periodic                 value=3.673738e-16 bound=1e-12      PASS\n"
    "square_case_oblique                  value=3.552714e-15 bound=1e-12      PASS\n"
    "square_case_periodic_r3              value=1.255494e-15 bound=1e-12      PASS\n"
    "square_metric_lame_inf               value=3.423928e-13 bound=1e-09      PASS\n"
    "square_metric_lame_p1                value=3.583800e-13 bound=1e-09      PASS\n"
    "square_metric_fg                     value=3.423928e-13 bound=1e-09      PASS\n"
    "square_metric_periodic               value=3.423928e-13 bound=1e-09      PASS\n"
    "square_metric_oblique                value=3.583800e-13 bound=1e-09      PASS\n"
    "toroid_octic_s0.0                    value=1.080025e-12 bound=1.6e-08    PASS\n"
    "toroid_octic_s0.5                    value=1.051603e-12 bound=1.6e-08    PASS\n"
    "toroid_octic_s1.0                    value=1.051603e-12 bound=1.6e-08    PASS\n"
    "sham_schwarz_reduction               value=4.996004e-16 bound=1e-12      PASS\n"
    "sphube_fg_z0                         value=0.000000e+00 bound=0          PASS\n"
    "periodic3d_periodic_z0               value=0.000000e+00 bound=0          PASS\n"
    "mesh_sphere                          value=2.000000e+00 bound=chi=2      PASS\n"
    "mesh_sphere_area                     value=4.405793e-04 bound=1e-02      PASS\n"
    "mesh_torus                           value=0.000000e+00 bound=chi=0      PASS\n"
    "mesh_cone_fg                         value=2.000000e+00 bound=chi=2      PASS\n"
    "mesh_cuboctahedron                   value=2.000000e+00 bound=chi=2      PASS\n"
)


def _digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def test_recipe_bytes(tmp_path, capsys):
    digests = {}
    for name in FIGURE_RECIPES:
        outdir = tmp_path / name
        outdir.mkdir()
        assert run_recipe(name, str(outdir)) == 0, name
        digests.update({f"{name}/{file}": d for file, d in _digests(outdir).items()})
    assert digests == RECIPE_SHA256


def _run_commands(commands, directory):
    for argv in commands:
        argv = list(argv)
        at = argv.index("--out") + 1
        argv[at] = str(directory / argv[at])
        assert cli.main(argv) == 0, argv
    return _digests(directory)


def test_family_command_bytes(tmp_path, capsys):
    assert _run_commands(FAMILY_COMMANDS, tmp_path) == COMMAND_SHA256


def test_tie_command_bytes(tmp_path, capsys):
    assert _run_commands(TIE_COMMANDS, tmp_path) == TIE_SHA256


def test_info_text(capsys):
    out = {}
    for family in INFO_STDOUT:
        assert cli.main(["info", "--family", family]) == 0
        out[family] = capsys.readouterr().out
    assert out == INFO_STDOUT


def test_verify_text(capsys):
    assert cli.main(["verify", "--suite", "all"]) == 0
    assert capsys.readouterr().out == VERIFY_STDOUT
