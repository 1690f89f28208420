//! The data level view (Figures 3–7, 11).
//!
//! "The view here contains a number of overlapping pages. The top page
//! contains the schema selection, a class or grouping, and the data
//! selection, some of its members. Each page contains a class, with all of
//! its attributes including inherited ones, or a grouping. To the right of
//! each class or grouping is a pannable list of its members. Selected
//! members are highlighted with bold text. Navigation is possible at the
//! data level by following attributes."

use isis_core::{AttrId, Database, EntityId, Result, SchemaNode};

use crate::boxes::{
    class_box_height, class_box_width, draw_class_box, draw_menu, draw_text_window,
};
use crate::geometry::{Point, Rect};
use crate::scene::{ArrowKind, Element, Emphasis, FrameStyle, Scene};

/// The commands of the data-level menu (§3.2, §4.2).
pub const DATA_MENU: &[&str] = &[
    "select/reject",
    "follow",
    "(re)assign att. value",
    "make subclass",
    "create entity",
    "pop",
    "pan",
    "undo",
    "redo",
];

/// Maximum member rows shown per page before the list elides. A page
/// names, highlights and sizes only these rows, so drawing it costs
/// `MEMBER_ROWS`, whatever the size of the extent behind it.
pub const MEMBER_ROWS: usize = 12;

/// One page of the data level.
#[derive(Debug, Clone, PartialEq)]
pub struct PageSpec {
    /// The class or grouping shown.
    pub node: SchemaNode,
    /// The data selection: highlighted members (entities for a class page,
    /// index entities for a grouping page).
    pub selected: Vec<EntityId>,
    /// First member row shown (panning the member list).
    pub scroll: usize,
    /// For pages reached by *follow*: the attribute that was followed from
    /// the previous page (drawn as an arrow between the pages).
    pub followed_from: Option<AttrId>,
}

impl PageSpec {
    /// A fresh page with nothing selected.
    pub fn new(node: SchemaNode) -> PageSpec {
        PageSpec {
            node,
            selected: Vec::new(),
            scroll: 0,
            followed_from: None,
        }
    }
}

/// Input to the data view: the page stack, bottom first (the last page is
/// the top, fully visible one).
#[derive(Debug, Clone, Default)]
pub struct DataViewInput {
    /// Pages, bottom to top.
    pub pages: Vec<PageSpec>,
    /// Lines for the text window.
    pub prompt: Vec<String>,
}

/// The result of building a data view.
#[derive(Debug, Clone)]
pub struct DataView {
    /// The rendered scene.
    pub scene: Scene,
    /// The rectangle of each page, bottom to top.
    pub page_rects: Vec<Rect>,
    /// For the top page: `(entity, row rect)` of each visible member row.
    pub member_rows: Vec<(EntityId, Rect)>,
}

impl DataView {
    /// The member row (of the top page) containing `p`.
    pub fn pick_member(&self, p: Point) -> Option<EntityId> {
        self.member_rows
            .iter()
            .find(|(_, r)| r.contains(p))
            .map(|(e, _)| *e)
    }
}

/// Page stacking offsets.
const PAGE_DX: i32 = 4;
const PAGE_DY: i32 = 3;

/// Builds the data-level view.
pub fn data_view(db: &Database, input: &DataViewInput) -> Result<DataView> {
    let obs = isis_obs::global();
    let _span = obs.span("views.build.data");
    let mut scene = Scene::new(db.name.clone());
    let mut page_rects = Vec::new();
    let mut member_rows = Vec::new();
    let mut attr_row_of_prev: Option<Vec<(AttrId, i32)>> = None;
    let mut prev_rect: Option<Rect> = None;

    for (i, page) in input.pages.iter().enumerate() {
        let at = Point::new(1 + i as i32 * PAGE_DX, 1 + i as i32 * PAGE_DY);
        let is_top = i + 1 == input.pages.len();
        let (rect, rows, attr_rows) = draw_page(db, page, at, &mut scene)?;
        // Follow arrow from the previous page's followed attribute row.
        if let (Some(attr), Some(prev_rows), Some(pr)) =
            (page.followed_from, attr_row_of_prev.as_ref(), prev_rect)
        {
            if let Some((_, row)) = prev_rows.iter().find(|(a, _)| *a == attr) {
                // The previous page's attr rows are covered by this page;
                // draw the arrow from the previous page's left edge at that
                // row (still visible) into the new page's top border.
                scene.push(Element::Arrow {
                    from: Point::new(pr.x, *row),
                    to: Point::new(rect.x, rect.y + 1),
                    kind: ArrowKind::Single,
                    label: None,
                });
            }
        }
        if is_top {
            member_rows = rows;
        }
        attr_row_of_prev = Some(attr_rows);
        prev_rect = Some(rect);
        page_rects.push(rect);
    }

    let content = scene.bounds();
    draw_menu(DATA_MENU, content.right() + 2, &mut scene);
    let b = scene.bounds();
    draw_text_window(
        &input.prompt,
        Rect::new(0, b.bottom() + 1, b.right().max(30), 5),
        &mut scene,
    );
    Ok(DataView {
        scene,
        page_rects,
        member_rows,
    })
}

type PageDraw = (Rect, Vec<(EntityId, Rect)>, Vec<(AttrId, i32)>);

/// Draws one page at `at`. A page costs the rows it shows, not its extent:
/// only the `MEMBER_ROWS` window from `scroll` is named and highlighted,
/// the elision count comes from the extent's length, and the member list
/// is as wide as the widest row shown. A grouping page counts its sets in
/// one pass over the parent ([`Database::grouping_sizes`]).
fn draw_page(db: &Database, page: &PageSpec, at: Point, scene: &mut Scene) -> Result<PageDraw> {
    // Gather the visible rows first to size the page.
    let (title, total, visible): (String, usize, Vec<(EntityId, String)>) = match page.node {
        SchemaNode::Class(c) => {
            let members = db.members(c)?.as_slice();
            let rows = members
                .iter()
                .skip(page.scroll)
                .take(MEMBER_ROWS)
                .map(|&e| Ok((e, db.entity_name(e)?.to_string())))
                .collect::<Result<Vec<_>>>()?;
            (db.class(c)?.name.clone(), members.len(), rows)
        }
        SchemaNode::Grouping(g) => {
            let sizes = db.grouping_sizes(g)?;
            let rows = sizes
                .iter()
                .skip(page.scroll)
                .take(MEMBER_ROWS)
                .map(|&(index, n)| Ok((index, format!("{{{}}} ({n})", db.entity_name(index)?))))
                .collect::<Result<Vec<_>>>()?;
            (db.grouping(g)?.name.clone(), sizes.len(), rows)
        }
    };

    // Left column: the class/grouping box with all attributes.
    let (box_w, box_h) = match page.node {
        SchemaNode::Class(c) => (
            class_box_width(db, c, true)?,
            class_box_height(db, c, true)?,
        ),
        SchemaNode::Grouping(_) => (20, 3),
    };
    let list_w = visible
        .iter()
        .map(|(_, n)| n.chars().count() as i32 + 4)
        .max()
        .unwrap_or(10)
        .max(12);
    let elided = total.saturating_sub(page.scroll + visible.len());
    // The up-marker takes a row of its own under the `members:` header.
    let first_row = at.y + 2 + i32::from(page.scroll > 0);
    let inner_h = box_h.max(first_row - at.y + visible.len() as i32 + 1);
    let rect = Rect::new(at.x, at.y, box_w + list_w + 6, inner_h + 2);
    scene.push(Element::Frame {
        rect,
        title: Some(title),
        style: FrameStyle::Page,
    });

    let attr_rows = match page.node {
        SchemaNode::Class(c) => {
            let layout = draw_class_box(db, c, Point::new(at.x + 1, at.y + 1), true, scene)?;
            layout.attr_rows
        }
        SchemaNode::Grouping(g) => {
            crate::boxes::draw_grouping_box(db, g, Point::new(at.x + 1, at.y + 1), scene)?;
            Vec::new()
        }
    };

    // Right column: the pannable member list.
    let lx = at.x + box_w + 3;
    scene.push(Element::Text {
        at: Point::new(lx, at.y + 1),
        text: "members:".into(),
        emphasis: Emphasis::Plain,
    });
    if page.scroll > 0 {
        scene.push(Element::Text {
            at: Point::new(lx + 1, at.y + 2),
            text: format!("(^ {} more)", page.scroll),
            emphasis: Emphasis::Plain,
        });
    }
    let mut rows = Vec::new();
    for (j, (e, name)) in visible.into_iter().enumerate() {
        let row_y = first_row + j as i32;
        scene.push(Element::Text {
            at: Point::new(lx + 1, row_y),
            text: name,
            emphasis: if page.selected.contains(&e) {
                Emphasis::Bold
            } else {
                Emphasis::Plain
            },
        });
        rows.push((e, Rect::new(lx, row_y, list_w, 1)));
    }
    if elided > 0 {
        scene.push(Element::Text {
            at: Point::new(lx + 1, first_row + rows.len() as i32),
            text: format!("(v {elided} more)"),
            emphasis: Emphasis::Plain,
        });
    }
    Ok((rect, rows, attr_rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::ascii;
    use isis_sample::instrumental_music;

    #[test]
    fn figure3_selecting_oboe() {
        let im = instrumental_music().unwrap();
        let mut page = PageSpec::new(SchemaNode::Class(im.instruments));
        page.selected = vec![im.flute, im.oboe];
        let view = data_view(
            &im.db,
            &DataViewInput {
                pages: vec![page],
                prompt: vec![],
            },
        )
        .unwrap();
        let s = &view.scene;
        assert!(s.has_text_with("flute", Emphasis::Bold));
        assert!(s.has_text_with("oboe", Emphasis::Bold));
        assert!(s.has_text_with("piano", Emphasis::Plain));
        // All attributes, inherited naming included.
        for a in ["name", "family", "popular"] {
            assert!(s.has_text(a));
        }
        // Menu present.
        assert!(s.has_text("select/reject"));
        assert!(s.has_text("follow"));
    }

    #[test]
    fn figure4_follow_family_overlaps_pages() {
        let im = instrumental_music().unwrap();
        let mut p1 = PageSpec::new(SchemaNode::Class(im.instruments));
        p1.selected = vec![im.flute, im.oboe];
        let mut p2 = PageSpec::new(SchemaNode::Class(im.families));
        p2.selected = vec![im.brass];
        p2.followed_from = Some(im.family);
        let view = data_view(
            &im.db,
            &DataViewInput {
                pages: vec![p1, p2],
                prompt: vec![],
            },
        )
        .unwrap();
        assert_eq!(view.page_rects.len(), 2);
        // Pages overlap (the defining visual of the data level).
        assert!(view.page_rects[0].intersects(&view.page_rects[1]));
        // brass is highlighted on the top page.
        assert!(view.scene.has_text_with("brass", Emphasis::Bold));
        // A follow arrow exists.
        assert!(view.scene.count(|e| matches!(e, Element::Arrow { .. })) >= 1);
    }

    #[test]
    fn grouping_page_lists_sets_with_sizes() {
        let im = instrumental_music().unwrap();
        let mut page = PageSpec::new(SchemaNode::Grouping(im.by_family));
        page.selected = vec![im.percussion];
        let view = data_view(
            &im.db,
            &DataViewInput {
                pages: vec![page],
                prompt: vec![],
            },
        )
        .unwrap();
        // Sets shown as {family}(count); percussion selected.
        assert!(view
            .scene
            .texts()
            .any(|(t, e)| t.contains("percussion") && e == Emphasis::Bold));
        assert!(view.scene.texts().any(|(t, _)| t.contains("(2)")));
    }

    #[test]
    fn member_list_elides_and_scrolls() {
        let mut im = instrumental_music().unwrap();
        for i in 0..20 {
            im.db
                .insert_entity(im.instruments, &format!("extra{i}"))
                .unwrap();
        }
        let page = PageSpec::new(SchemaNode::Class(im.instruments));
        let view = data_view(
            &im.db,
            &DataViewInput {
                pages: vec![page.clone()],
                prompt: vec![],
            },
        )
        .unwrap();
        assert_eq!(view.member_rows.len(), MEMBER_ROWS);
        assert!(view.scene.texts().any(|(t, _)| t.contains("more)")));
        // Scrolled page shows the up indicator and later members.
        let mut scrolled = page;
        scrolled.scroll = 15;
        let view2 = data_view(
            &im.db,
            &DataViewInput {
                pages: vec![scrolled],
                prompt: vec![],
            },
        )
        .unwrap();
        assert!(view2.scene.texts().any(|(t, _)| t.contains("(^ 15 more)")));
        // The up-marker takes a row of its own: the header survives.
        let out = ascii::render(&view2.scene);
        let row = |s: &str| out.lines().position(|l| l.contains(s));
        assert!(
            row("members:").is_some_and(|m| row("(^ 15 more)") > Some(m)),
            "{out}"
        );
    }

    #[test]
    fn pick_member_hit_tests_rows() {
        let im = instrumental_music().unwrap();
        let page = PageSpec::new(SchemaNode::Class(im.instruments));
        let view = data_view(
            &im.db,
            &DataViewInput {
                pages: vec![page],
                prompt: vec![],
            },
        )
        .unwrap();
        let (first, rect) = view.member_rows[0];
        assert_eq!(
            view.pick_member(Point::new(rect.x + 1, rect.y)),
            Some(first)
        );
        assert_eq!(view.pick_member(Point::new(-9, -9)), None);
    }

    #[test]
    fn ascii_rendering_shows_top_page_content() {
        let im = instrumental_music().unwrap();
        let mut p1 = PageSpec::new(SchemaNode::Class(im.instruments));
        p1.selected = vec![im.flute];
        let p2 = {
            let mut p = PageSpec::new(SchemaNode::Class(im.families));
            p.followed_from = Some(im.family);
            p
        };
        let out = ascii::render(
            &data_view(
                &im.db,
                &DataViewInput {
                    pages: vec![p1, p2],
                    prompt: vec!["choose an attribute".into()],
                },
            )
            .unwrap()
            .scene,
        );
        assert!(out.contains("families"));
        assert!(out.contains("brass"));
        assert!(out.contains("choose an attribute"));
    }
}
