//! Fuzz-style robustness tests of the FlowC front end: mutated and
//! truncated variants of the checked-in `samples/pipeline.flowc` must
//! never panic the parser — every outcome is either a parsed system or a
//! structured [`FlowCError`], and lexical/syntax errors must carry a
//! plausible source line.
//!
//! Mutations are driven by the deterministic [`TestRng`] of the proptest
//! shim, so any failure reproduces identically run to run.

use proptest::TestRng;
use qss_flowc::{parse_system, FlowCError};

fn sample() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/samples/pipeline.flowc");
    std::fs::read_to_string(path).expect("checked-in sample exists")
}

/// Parses `source` and asserts the error contract: no panic (a panic
/// fails the test on its own), and lex/parse errors point at a line that
/// exists (1-based, at most one past the last line for end-of-input
/// errors).
fn assert_error_contract(source: &str, what: &str) {
    let num_lines = source.lines().count();
    match parse_system(source) {
        Ok(_) => {}
        Err(FlowCError::Lex { line, message } | FlowCError::Parse { line, message }) => {
            assert!(line >= 1, "{what}: error line must be 1-based, got {line}");
            assert!(
                line <= num_lines + 1,
                "{what}: error line {line} beyond the {num_lines}-line input"
            );
            assert!(!message.is_empty(), "{what}: empty error message");
        }
        Err(FlowCError::Semantic(message) | FlowCError::Net(message)) => {
            assert!(!message.is_empty(), "{what}: empty error message");
        }
    }
}

/// Every prefix of the sample parses or fails cleanly. Truncation in the
/// middle of a token, a comment, a string of punctuation — all of it.
#[test]
fn truncations_never_panic() {
    let source = sample();
    for end in 0..=source.len() {
        if !source.is_char_boundary(end) {
            continue;
        }
        assert_error_contract(&source[..end], &format!("truncation at byte {end}"));
    }
}

/// Single-character substitutions drawn from a hostile alphabet.
#[test]
fn substitutions_never_panic() {
    let source = sample();
    let alphabet: Vec<char> = "{}()[];,.->=<>!%&|*+-/ \t\n\0\u{7f}éПROCESSxq0123456789\""
        .chars()
        .collect();
    let mut rng = TestRng::new("parser-fuzz-substitutions");
    for case in 0..600 {
        let mut chars: Vec<char> = source.chars().collect();
        let pos = (rng.next_u64() as usize) % chars.len();
        let replacement = alphabet[(rng.next_u64() as usize) % alphabet.len()];
        chars[pos] = replacement;
        let mutated: String = chars.into_iter().collect();
        assert_error_contract(
            &mutated,
            &format!("substitution case {case} at char {pos} with {replacement:?}"),
        );
    }
}

/// Random slice deletions (dropping whole spans of tokens, braces,
/// manifest lines).
#[test]
fn deletions_never_panic() {
    let source = sample();
    let mut rng = TestRng::new("parser-fuzz-deletions");
    for case in 0..400 {
        let chars: Vec<char> = source.chars().collect();
        let start = (rng.next_u64() as usize) % chars.len();
        let len = 1 + (rng.next_u64() as usize) % 80;
        let mutated: String = chars[..start]
            .iter()
            .chain(chars[(start + len).min(chars.len())..].iter())
            .collect();
        assert_error_contract(&mutated, &format!("deletion case {case} at {start}+{len}"));
    }
}

/// Random token insertions, including keywords in wrong positions and
/// unbalanced delimiters.
#[test]
fn insertions_never_panic() {
    let source = sample();
    let fragments = [
        "PROCESS",
        "SYSTEM",
        "CHANNEL",
        "}",
        "{",
        "(",
        ")",
        ";",
        "->",
        ".",
        "INPUT",
        "UNCONTROLLABLE",
        "while",
        "if",
        "else",
        "int",
        "READ_DATA",
        "SELECT",
        "0xg",
        "\"",
        "/*",
        "//",
        "9999999999999999999999",
        "RATE",
    ];
    let mut rng = TestRng::new("parser-fuzz-insertions");
    for case in 0..400 {
        let chars: Vec<char> = source.chars().collect();
        let pos = (rng.next_u64() as usize) % (chars.len() + 1);
        let fragment = fragments[(rng.next_u64() as usize) % fragments.len()];
        let mutated: String = chars[..pos].iter().collect::<String>()
            + fragment
            + &chars[pos..].iter().collect::<String>();
        assert_error_contract(&mutated, &format!("insertion case {case} of {fragment:?}"));
    }
}

/// Whole-line deletions and duplications (manifest lines, braces, port
/// declarations).
#[test]
fn line_level_mutations_never_panic() {
    let source = sample();
    let lines: Vec<&str> = source.lines().collect();
    for i in 0..lines.len() {
        let without: String = lines
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, l)| *l)
            .collect::<Vec<_>>()
            .join("\n");
        assert_error_contract(&without, &format!("deleted line {}", i + 1));
        let mut doubled: Vec<&str> = lines.clone();
        doubled.insert(i, lines[i]);
        assert_error_contract(&doubled.join("\n"), &format!("doubled line {}", i + 1));
    }
}

/// Pathological inputs that commonly crash hand-written lexers.
#[test]
fn pathological_inputs_never_panic() {
    let cases = [
        String::new(),
        "\u{feff}SYSTEM x {}".to_string(),
        "PROCESS".to_string(),
        "PROCESS p".to_string(),
        "PROCESS p (".to_string(),
        "PROCESS p (In DPORT a) {".to_string(),
        "SYSTEM {".to_string(),
        "SYSTEM s { CHANNEL a.b -> ; }".to_string(),
        "SYSTEM s { CHANNEL a.b -> c.d [99999999999999999999]; }".to_string(),
        "/*".to_string(),
        "\"unterminated".to_string(),
        "{".repeat(2000),
        "(".repeat(2000),
        "PROCESS p (In DPORT a) { ".to_string() + &"if (1) ".repeat(400) + ";}",
        "\n".repeat(5000) + "PROCESS",
        "PROCESS p (In DPORT a) { int x; x = 2147483648999999; }".to_string(),
    ];
    for (i, case) in cases.iter().enumerate() {
        assert_error_contract(case, &format!("pathological case {i}"));
    }
}

/// Deep nesting must come back as a parse error (the recursion guard),
/// never as a stack overflow — and long *chains*, which are legal and
/// parse fine, must not blow the stack when the AST is dropped.
#[test]
fn deep_nesting_errors_and_long_chains_drop_safely() {
    let deep_parens = format!(
        "PROCESS p (In DPORT a) {{ int x; x = {}1{}; }}",
        "(".repeat(20_000),
        ")".repeat(20_000)
    );
    assert!(matches!(
        parse_system(&deep_parens),
        Err(FlowCError::Parse { .. })
    ));
    let deep_ifs = format!(
        "PROCESS p (In DPORT a) {{ {} ; {} }}",
        "if (1) {".repeat(20_000),
        "}".repeat(20_000)
    );
    assert!(matches!(
        parse_system(&deep_ifs),
        Err(FlowCError::Parse { .. })
    ));
    // An `else if` cascade recurses once per arm without re-entering the
    // block parser — it must count against the same guard.
    let else_if_chain = format!(
        "PROCESS p (In DPORT a) {{ if (1) ; {} else ; }}",
        "else if (1) ; ".repeat(100_000)
    );
    assert!(matches!(
        parse_system(&else_if_chain),
        Err(FlowCError::Parse { .. })
    ));
    let deep_unary = format!(
        "PROCESS p (In DPORT a) {{ int x; x = {}1; }}",
        "-".repeat(20_000)
    );
    assert!(matches!(
        parse_system(&deep_unary),
        Err(FlowCError::Parse { .. })
    ));
    // A 100k-term sum is a *chain*, not nesting: it parses, and dropping
    // the AST exercises the iterative `Drop` for `Expr`.
    let long_chain = format!(
        "PROCESS p (In DPORT a) {{ int x; x = 1{}; }}",
        "+1".repeat(100_000)
    );
    assert!(parse_system(&long_chain).is_ok());
}

/// A source nested exactly to the parser's limit (256 levels):
/// `if_levels` nested `if` blocks inside a `while`, around one assignment
/// whose right-hand side sits in `paren_levels` parentheses. Every
/// statement costs one level, an expression one more, and each
/// parenthesis two (its inner expression plus the unary level in front
/// of it), so the innermost operand sits `if_levels + 2 * paren_levels
/// + 4` levels deep.
fn nested_to(if_levels: usize, paren_levels: usize) -> String {
    format!(
        "SYSTEM nest {{\n}}\nPROCESS p (In DPORT a, Out DPORT o) {{\n    int x;\n    \
         while (1) {{\n        READ_DATA(a, x, 1);\n        {}x = {}x{};{}\n        \
         WRITE_DATA(o, x, 1);\n    }}\n}}\n",
        "if (x) { ".repeat(if_levels),
        "(".repeat(paren_levels),
        ")".repeat(paren_levels),
        " }".repeat(if_levels),
    )
}

/// Admission at the nesting limit needs no special stack: the deepest
/// source the parser accepts parses, links and analyzes on a spawned
/// thread with the default stack size, and a one-worker in-process
/// daemon (whose workers run on default stacks) answers `check` and
/// `analyze` for it.
#[test]
fn sources_at_the_nesting_limit_are_admitted_on_default_stacks() {
    let at_limit = nested_to(126, 63);
    let beyond = nested_to(127, 63);
    match parse_system(&beyond) {
        Err(FlowCError::Parse { message, .. }) => {
            assert!(message.contains("nested deeper than 256"), "{message}")
        }
        other => panic!("one level past the limit must fail to parse: {other:?}"),
    }
    let local = {
        let source = at_limit.clone();
        std::thread::spawn(move || {
            let linked = qss::Pipeline::from_source(&source)
                .expect("the source at the limit parses")
                .link()
                .expect("the source at the limit links");
            linked.analyze().to_json()
        })
        .join()
        .expect("parse, link and analyze fit a default stack")
    };

    let server = qss_server::Server::bind(qss_server::ServerConfig {
        workers: 1,
        ..qss_server::ServerConfig::default()
    })
    .expect("bind an ephemeral port")
    .spawn();
    let mut client = qss_server::Client::connect(server.addr()).expect("connect");
    let summary = client.check(&at_limit).expect("check at the limit");
    assert_eq!(summary.system, "nest");
    let remote = client.analyze(&at_limit).expect("analyze at the limit");
    assert_eq!(remote.artifact_json(), local);
    server.shutdown_and_join().expect("clean shutdown");
}
