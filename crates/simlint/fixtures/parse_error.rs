//! Fixture with an unbalanced delimiter: the parser must report a parse
//! failure (CLI exit code 2) and the file contributes no findings.

pub fn broken() {
    let x = (1, 2;
}
