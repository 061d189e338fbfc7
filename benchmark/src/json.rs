//! A small JSON reader and the number/string formatting the writers share
//! (result files are read back by `compare` and by the self-tests).

/// A parsed JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Compact JSON text of this value.
    pub fn render(&self) -> String {
        match self {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Num(x) => num(*x),
            Json::Str(s) => quote(s),
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(Json::render).collect();
                format!("[{}]", items.join(","))
            }
            Json::Obj(members) => {
                let members: Vec<String> = members
                    .iter()
                    .map(|(k, v)| format!("{}:{}", quote(k), v.render()))
                    .collect();
                format!("{{{}}}", members.join(","))
            }
        }
    }
}

/// Render a number with every digit it has (non-finite values become 0 so
/// the output stays valid JSON).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Render a string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parse one JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|b| b.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, ch: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&ch) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", ch as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.eat("}") {
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    members.push((key, self.value()?));
                    self.ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(members));
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    self.expect(b',')?;
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| b"+-.eE0123456789".contains(b))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    self.i += 2;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or("bad \\u escape")?;
                            self.i += 4;
                            out.extend(hex.to_string().bytes());
                        }
                        other => out.push(other),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let text = r#"{"a": [1, 2.5e3, -0.125], "b": {"c": "x\"y\n", "d": true, "e": null}}"#;
        let v = parse(text).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(2500.0)
        );
        let b = v.get("b").unwrap();
        assert_eq!(b.get("c").unwrap().as_str(), Some("x\"y\n"));
        assert_eq!(b.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(b.get("e"), Some(&Json::Null));
        assert_eq!(quote("x\"y\n"), r#""x\"y\n""#);
        assert_eq!(parse(&v.render()).unwrap(), v);
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("[1,").is_err());
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(parse(&num(1.2034e-7)).unwrap().as_f64(), Some(1.2034e-7));
    }
}
