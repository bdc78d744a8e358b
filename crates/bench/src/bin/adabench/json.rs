//! The little JSON the benchmark needs: escaping and number formatting
//! for what it writes, and a reader for the one result line it parses
//! back from its own child processes (`--all`, `--selfcheck`).

/// `s` as a JSON string literal, quotes included.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with every digit it was measured with; JSON has no
/// NaN or infinity, so those become `null`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The number stored directly under `"key": ` in a line this program
/// wrote itself.
pub fn number_after(text: &str, key: &str) -> Option<f64> {
    let needle = format!("{}: ", string(key));
    let tail = &text[text.find(&needle)? + needle.len()..];
    let end = tail.find([',', '}']).unwrap_or(tail.len());
    tail[..end].trim().parse().ok()
}

/// Every `name → value` pair of a result line's `"metrics"` object, in
/// the spacing [`crate::report`] writes it.
pub fn metrics_of(line: &str) -> Vec<(String, f64)> {
    const SEP: &str = "\": {\"value\": ";
    let mut out = Vec::new();
    let Some((_, mut rest)) = line.split_once("\"metrics\": ") else {
        return out;
    };
    while let Some(i) = rest.find(SEP) {
        let name = &rest[rest[..i].rfind('"').map_or(0, |q| q + 1)..i];
        let tail = &rest[i + SEP.len()..];
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        if let Ok(value) = tail[..end].trim().parse() {
            out.push((name.to_string(), value));
        }
        rest = &tail[end..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(string("l1\nl2\tx\r"), "\"l1\\nl2\\tx\\r\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(string("µs"), "\"µs\"");
    }

    #[test]
    fn numbers_keep_their_digits_and_never_print_nan() {
        assert_eq!(number(1.25), "1.25");
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn reads_back_a_result_line() {
        let line = r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"items_per_s": {"value": 1234.5, "unit": "1/s"}, "setup_s": {"value": 2.5e-4, "unit": "s"}}}"#;
        assert_eq!(number_after(line, "attempted"), Some(12.0));
        assert_eq!(number_after(line, "failed"), Some(0.0));
        assert_eq!(number_after(line, "absent"), None);
        assert_eq!(
            metrics_of(line),
            vec![
                ("items_per_s".to_string(), 1234.5),
                ("setup_s".to_string(), 2.5e-4)
            ]
        );
        assert!(metrics_of("not json").is_empty());
    }
}
