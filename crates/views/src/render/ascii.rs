//! The ASCII renderer.
//!
//! Draws a [`Scene`] onto a character grid. Conventions (documented here
//! because a text terminal has no bold or reverse video):
//!
//! * reverse-video text is wrapped in `▌…▐`-substitutes: `#name#`;
//! * bold (selected) text is wrapped in `*…*`;
//! * fill-pattern swatches are the pattern's glyph(s); set-valued swatches
//!   are wrapped in square brackets `[#]`;
//! * the hand icon is `=>`;
//! * single arrows end in `>`/`v`/`^`/`<`; double arrows in `»`-substitute
//!   `>>` (or doubled vertical heads).

use crate::geometry::{Point, Rect};
use crate::scene::{ArrowKind, Element, Emphasis, FrameStyle, Scene};

/// A character grid the renderer paints onto.
#[derive(Debug)]
struct Canvas {
    w: usize,
    h: usize,
    cells: Vec<char>,
}

impl Canvas {
    fn new(w: usize, h: usize) -> Canvas {
        Canvas {
            w,
            h,
            cells: vec![' '; w * h],
        }
    }

    fn put(&mut self, x: i32, y: i32, c: char) {
        if x >= 0 && y >= 0 && (x as usize) < self.w && (y as usize) < self.h {
            self.cells[y as usize * self.w + x as usize] = c;
        }
    }

    fn get(&self, x: i32, y: i32) -> char {
        if x >= 0 && y >= 0 && (x as usize) < self.w && (y as usize) < self.h {
            self.cells[y as usize * self.w + x as usize]
        } else {
            ' '
        }
    }

    fn text(&mut self, x: i32, y: i32, s: &str) {
        for (i, c) in s.chars().enumerate() {
            self.put(x + i as i32, y, c);
        }
    }

    fn frame(&mut self, r: Rect, title: Option<&str>, style: FrameStyle) {
        if r.w < 2 || r.h < 2 {
            return;
        }
        let (hch, vch) = match style {
            FrameStyle::Window => ('-', '|'),
            FrameStyle::Menu => ('=', '|'),
            FrameStyle::TextWindow => ('.', ':'),
            FrameStyle::Page => ('-', '|'),
        };
        // Pages are opaque: clear the interior so overlapped pages show
        // only where they peek out (the data level's overlapping pages).
        if style == FrameStyle::Page {
            for y in r.y + 1..r.bottom() - 1 {
                for x in r.x + 1..r.right() - 1 {
                    self.put(x, y, ' ');
                }
            }
        }
        for x in r.x..r.right() {
            self.put(x, r.y, hch);
            self.put(x, r.bottom() - 1, hch);
        }
        for y in r.y..r.bottom() {
            self.put(r.x, y, vch);
            self.put(r.right() - 1, y, vch);
        }
        self.put(r.x, r.y, '+');
        self.put(r.right() - 1, r.y, '+');
        self.put(r.x, r.bottom() - 1, '+');
        self.put(r.right() - 1, r.bottom() - 1, '+');
        if let Some(t) = title {
            let label = format!(" {t} ");
            self.text(r.x + 1, r.y, &label);
        }
    }

    fn hline(&mut self, x1: i32, x2: i32, y: i32) {
        let (a, b) = (x1.min(x2), x1.max(x2));
        for x in a..=b {
            let cur = self.get(x, y);
            self.put(x, y, if cur == '|' { '+' } else { '-' });
        }
    }

    fn vline(&mut self, x: i32, y1: i32, y2: i32) {
        let (a, b) = (y1.min(y2), y1.max(y2));
        for y in a..=b {
            let cur = self.get(x, y);
            self.put(x, y, if cur == '-' { '+' } else { '|' });
        }
    }

    fn to_string_trimmed(&self) -> String {
        let mut out = String::with_capacity(self.w * self.h + self.h);
        for y in 0..self.h {
            let row: String = self.cells[y * self.w..(y + 1) * self.w].iter().collect();
            out.push_str(row.trim_end());
            out.push('\n');
        }
        // Drop trailing blank lines.
        while out.ends_with("\n\n") {
            out.pop();
        }
        out
    }
}

/// Renders a scene to a string of text.
pub fn render(scene: &Scene) -> String {
    let obs = isis_obs::global();
    let _span = obs.span("views.render.ascii");
    obs.count("views.renders", 1);
    obs.count("views.render.elements", scene.elements.len() as u64);
    let b = scene.bounds();
    let w = (b.right().max(scene.title.chars().count() as i32 + 7) + 2).max(4) as usize;
    let h = (b.bottom() + 3).max(3) as usize;
    let mut c = Canvas::new(w, h);
    // Title bar, like the figures' "Instrumental_music" banner.
    c.text(1, 0, &format!("== {} ==", scene.title));
    let oy = 2; // content starts under the title bar

    // Paint in scene order: builders push background frames before their
    // content, and later (overlapping) pages after earlier ones, so strict
    // document order gives correct occlusion — exactly like the SVG
    // renderer.
    for e in &scene.elements {
        match e {
            Element::Frame { rect, title, style } => {
                c.frame(rect.translated(0, oy), title.as_deref(), *style);
            }
            Element::Arrow {
                from,
                to,
                kind,
                label,
            } => {
                draw_arrow(
                    &mut c,
                    Point::new(from.x, from.y + oy),
                    Point::new(to.x, to.y + oy),
                    *kind,
                    label.as_deref(),
                );
            }
            Element::Text { at, text, emphasis } => {
                let s = match emphasis {
                    Emphasis::Plain => text.clone(),
                    Emphasis::Bold => format!("*{text}*"),
                    Emphasis::Reverse => format!("#{text}#"),
                };
                let x = match emphasis {
                    Emphasis::Plain => at.x,
                    _ => at.x - 1,
                };
                c.text(x, at.y + oy, &s);
            }
            Element::Swatch {
                at,
                fill,
                set_border,
            } => {
                let sw = fill.ascii_swatch();
                let s = if *set_border { format!("[{sw}]") } else { sw };
                c.text(at.x, at.y + oy, &s);
            }
            Element::Hand { at } => {
                c.text(at.x - 2, at.y + oy, "=>");
            }
        }
    }
    c.to_string_trimmed()
}

fn draw_arrow(c: &mut Canvas, from: Point, to: Point, kind: ArrowKind, label: Option<&str>) {
    // Elbow: horizontal first, then vertical.
    let corner = Point::new(to.x, from.y);
    if from.y == to.y {
        c.hline(from.x, to.x, from.y);
    } else if from.x == to.x {
        c.vline(from.x, from.y, to.y);
    } else {
        c.hline(from.x, corner.x, from.y);
        c.vline(corner.x, corner.y, to.y);
        c.put(corner.x, corner.y, '+');
    }
    // Arrowhead at `to`.
    let head = match kind {
        ArrowKind::None => None,
        ArrowKind::Single | ArrowKind::Double => Some(if from.y == to.y {
            if to.x >= from.x {
                '>'
            } else {
                '<'
            }
        } else if to.y >= from.y {
            'v'
        } else {
            '^'
        }),
    };
    if let Some(hc) = head {
        c.put(to.x, to.y, hc);
        if kind == ArrowKind::Double {
            // Double the head one cell before the tip.
            match hc {
                '>' => c.put(to.x - 1, to.y, '>'),
                '<' => c.put(to.x + 1, to.y, '<'),
                'v' => c.put(to.x, to.y - 1, 'v'),
                '^' => c.put(to.x, to.y + 1, '^'),
                _ => {}
            }
        }
    }
    if let Some(l) = label {
        let mx = (from.x + to.x) / 2;
        let my = from.y.min(to.y);
        c.text(mx - l.chars().count() as i32 / 2, my - 1, l);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{Element, FrameStyle};
    use isis_core::FillPattern;

    #[test]
    fn renders_title_and_frame() {
        let mut s = Scene::new("Instrumental_Music");
        s.push(Element::Frame {
            rect: Rect::new(0, 0, 12, 4),
            title: Some("musicians".into()),
            style: FrameStyle::Window,
        });
        let out = render(&s);
        assert!(out.contains("== Instrumental_Music =="));
        assert!(out.contains("musicians"));
        assert!(out.contains("+"));
    }

    #[test]
    fn emphasis_conventions() {
        let mut s = Scene::new("t");
        s.push(Element::Text {
            at: Point::new(2, 0),
            text: "flute".into(),
            emphasis: Emphasis::Bold,
        });
        s.push(Element::Text {
            at: Point::new(2, 1),
            text: "STRINGS".into(),
            emphasis: Emphasis::Reverse,
        });
        let out = render(&s);
        assert!(out.contains("*flute*"));
        assert!(out.contains("#STRINGS#"));
    }

    #[test]
    fn swatches_and_hand() {
        let mut s = Scene::new("t");
        s.push(Element::Swatch {
            at: Point::new(0, 0),
            fill: FillPattern::nth(0),
            set_border: true,
        });
        s.push(Element::Swatch {
            at: Point::new(6, 0),
            fill: FillPattern::nth(1),
            set_border: false,
        });
        s.push(Element::Hand {
            at: Point::new(12, 0),
        });
        let out = render(&s);
        assert!(out.contains("[#]"));
        assert!(out.contains(":"));
        assert!(out.contains("=>"));
    }

    #[test]
    fn arrows_have_heads_and_labels() {
        let mut s = Scene::new("t");
        s.push(Element::Arrow {
            from: Point::new(0, 2),
            to: Point::new(10, 2),
            kind: ArrowKind::Double,
            label: Some("plays".into()),
        });
        let out = render(&s);
        assert!(out.contains(">>"));
        assert!(out.contains("plays"));
        let mut s2 = Scene::new("t");
        s2.push(Element::Arrow {
            from: Point::new(0, 1),
            to: Point::new(0, 5),
            kind: ArrowKind::Single,
            label: None,
        });
        let out2 = render(&s2);
        assert!(out2.contains('v'));
    }

    #[test]
    fn elbow_arrows_bend() {
        let mut s = Scene::new("t");
        s.push(Element::Arrow {
            from: Point::new(0, 0),
            to: Point::new(6, 4),
            kind: ArrowKind::Single,
            label: None,
        });
        let out = render(&s);
        assert!(out.contains('-'));
        assert!(out.contains('|'));
        assert!(out.contains('v'));
    }

    #[test]
    fn deterministic() {
        let mut s = Scene::new("t");
        s.push(Element::Frame {
            rect: Rect::new(0, 0, 8, 3),
            title: None,
            style: FrameStyle::Menu,
        });
        assert_eq!(render(&s), render(&s));
    }
}
